package baseband

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/sim"
)

// ARQConfig parameterises the baseband retransmission scheme.
type ARQConfig struct {
	// FlushLimit is the maximum number of transmission attempts per payload;
	// when exhausted, the current payload is dropped and the next one is
	// considered — the paper's explanation for packet-loss failures.
	FlushLimit int

	// CRCEscape is the probability that a corrupted payload slips past the
	// CRC-16 (a "data mismatch"). Under correlated burst errors the residual
	// error rate is far above the 2^-16 memoryless bound (Paulitsch et al.,
	// DSN 2005), which is why the paper sees data corruption at all.
	CRCEscape float64

	// BurstContinue is the intra-burst bit-error clustering density; it must
	// match radio.CodewordErrors' continuation probability (0.3) for the
	// analytic fast path to agree with the bit-level model.
	BurstContinue float64

	// SlowPath disables the transmitter's probability memoization: every
	// chunk and attempt probability is recomputed from scratch instead of
	// served from the (pt, bits, BER)-keyed caches, and each batched SDU
	// window runs the per-fragment product and CDF inversion scalar by
	// scalar instead of reading the SDU-shape power table. Control flow —
	// run-length BER queries, window splits and RNG draws included — is
	// identical on both settings, and probabilities combine in the same
	// order, so campaign outputs are bit-identical; the knob exists so the
	// seed-equivalence test and TestSendSDUFastMatchesSlowPath can prove the
	// memoization is sound. (The run-length API itself is pinned to
	// per-slot queries by radio's TestBERRunMatchesSlotBER, and the batch
	// draw to per-fragment sends by TestSendSDUMatchesPerFragmentSends.)
	SlowPath bool
}

// DefaultARQConfig returns the calibrated retransmission parameters.
func DefaultARQConfig() ARQConfig {
	return ARQConfig{
		FlushLimit:    16,
		CRCEscape:     2e-5,
		BurstContinue: 0.3,
	}
}

// Validate reports configuration errors.
func (c ARQConfig) Validate() error {
	switch {
	case c.FlushLimit < 1:
		return fmt.Errorf("baseband: flush limit %d < 1", c.FlushLimit)
	case c.CRCEscape < 0 || c.CRCEscape > 1:
		return fmt.Errorf("baseband: CRC escape %v out of range", c.CRCEscape)
	case c.BurstContinue < 0 || c.BurstContinue >= 1:
		return fmt.Errorf("baseband: burst continuation %v out of range", c.BurstContinue)
	default:
		return nil
	}
}

// Outcome describes the fate of one payload submitted to the ARQ.
type Outcome int

// Payload fates.
const (
	// Delivered: payload arrived intact (possibly after retransmissions).
	Delivered Outcome = iota
	// Dropped: the flush limit was exhausted; the payload was discarded
	// (surfaces as a "Packet loss" user failure after the 30 s timeout).
	Dropped
	// Corrupted: the payload was accepted by the receiver but its content
	// is wrong (CRC escape; surfaces as "Data mismatch").
	Corrupted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Dropped:
		return "dropped"
	case Corrupted:
		return "corrupted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// TxResult reports the transmission of one payload.
type TxResult struct {
	Outcome  Outcome
	Attempts int      // transmission attempts made (1 = first try succeeded)
	Slots    int64    // total slots consumed, including return slots
	Elapsed  sim.Time // Slots expressed as time
}

// Transmitter runs the ACL ARQ over a radio link. It is the data plane of
// one piconet direction; the workload calls Send once per BlueTest packet.
type Transmitter struct {
	cfg  ARQConfig
	link *radio.Link
	rng  *rand.Rand
	slot int64 // next free slot on the shared piconet clock

	// cf memoizes chunkFailProb per (packet type, bits-in-slot, BER). The
	// BER is part of the key, so entries never need explicit invalidation:
	// a channel-state transition simply stops hitting them. An attempt
	// touches at most two distinct bit counts (full slots plus the
	// remainder slot), so a tiny ring with linear scan stays hot across
	// the ~2.9M-slot good-state sojourns that dominate the campaign.
	cf     [8]cfEntry
	cfNext int
	cfMRU  int

	// att memoizes whole-attempt survival probabilities per (packet type,
	// air bits, BER) for attempts that fall entirely inside one channel
	// state — the overwhelmingly common case. One hit replaces the
	// per-slot chunk loop.
	att     [8]attEntry
	attNext int
	attMRU  int

	// shapes memoizes SendSDU's batched-window probabilities per SDU shape
	// (packet type, full and last fragment lengths, BER). A workload cycle
	// sends runs of same-sized SDUs, so the MRU entry answers almost every
	// window; a ring of eight covers send/receive alternation across
	// channel states.
	shapes    [8]sduShape
	shapeNext int
	shapeMRU  int
}

// sduShape is one memoized SDU shape: the first-attempt survival
// probability of the final fragment and a prefix-power table of the full
// fragments' survival probability pFull.
type sduShape struct {
	ber   float64
	pLast float64
	// pows[k] is the probability that k consecutive full fragments survive
	// their first attempts: pows[0] = 1, pows[k] = pows[k-1] * pFull, built
	// by sequential multiplication in transmission order — the same floats
	// the SlowPath running product yields. It grows to the longest window
	// seen (at most sduBatchMax+1 entries) and keeps its storage when the
	// entry is evicted.
	pows    []float64
	fullLen int32
	lastLen int32
	pt      core.PacketType
	valid   bool
}

// shape returns the memo entry for an SDU shape at the given BER, built on
// a miss; only misses pay the air-bit and bits-per-slot arithmetic.
func (t *Transmitter) shape(pt core.PacketType, fullLen, lastLen int, ber float64) *sduShape {
	if e := &t.shapes[t.shapeMRU]; e.matches(pt, fullLen, lastLen, ber) {
		return e
	}
	for i := range t.shapes {
		if e := &t.shapes[i]; e.matches(pt, fullLen, lastLen, ber) {
			t.shapeMRU = i
			return e
		}
	}
	e := &t.shapes[t.shapeNext]
	*e = sduShape{
		ber:     ber,
		pLast:   t.fragOK(pt, lastLen, ber),
		pows:    append(e.pows[:0], 1, t.fragOK(pt, fullLen, ber)),
		fullLen: int32(fullLen),
		lastLen: int32(lastLen),
		pt:      pt,
		valid:   true,
	}
	t.shapeMRU = t.shapeNext
	t.shapeNext = (t.shapeNext + 1) % len(t.shapes)
	return e
}

// matches reports whether e is a live entry for the shape at this BER.
func (e *sduShape) matches(pt core.PacketType, fullLen, lastLen int, ber float64) bool {
	return e.valid && e.ber == ber && e.fullLen == int32(fullLen) &&
		e.lastLen == int32(lastLen) && e.pt == pt
}

// grow extends the power table through pows[n].
func (e *sduShape) grow(n int) {
	pFull := e.pows[1]
	for len(e.pows) <= n {
		e.pows = append(e.pows, e.pows[len(e.pows)-1]*pFull)
	}
}

// attEntry is one memoized attempt survival probability.
type attEntry struct {
	ber     float64
	pOK     float64
	airBits int32
	pt      core.PacketType
	valid   bool
}

// attemptOK returns the probability that an attempt of airBits on-air bits
// survives every one of its slots at constant BER, memoized. The product is
// accumulated slot by slot in the same order as the slow path, from the same
// memoized chunkFailProb values, so the cached float is bit-identical to
// what a per-slot computation yields.
func (t *Transmitter) attemptOK(pt core.PacketType, airBits, slots, bitsPerSlot int, ber float64) float64 {
	if e := &t.att[t.attMRU]; e.valid && e.pt == pt && e.airBits == int32(airBits) && e.ber == ber {
		return e.pOK
	}
	for i := range t.att {
		e := &t.att[i]
		if e.valid && e.pt == pt && e.airBits == int32(airBits) && e.ber == ber {
			t.attMRU = i
			return e.pOK
		}
	}
	pOK := 1.0
	for s := 0; s < slots; s++ {
		bits := bitsPerSlot
		if rem := airBits - s*bitsPerSlot; rem < bits {
			bits = rem
		}
		pOK *= 1 - t.chunkFail(pt, bits, ber)
	}
	t.att[t.attNext] = attEntry{ber: ber, pOK: pOK, airBits: int32(airBits), pt: pt, valid: true}
	t.attMRU = t.attNext
	t.attNext = (t.attNext + 1) % len(t.att)
	return pOK
}

// cfEntry is one memoized chunk-failure probability.
type cfEntry struct {
	ber   float64
	prob  float64
	bits  int32
	pt    core.PacketType
	valid bool
}

// chunkFail returns chunkFailProb(pt, bits, ber), memoized. The cached value
// is the exact float produced by chunkFailProb, so fast- and slow-path
// campaigns stay bit-identical.
func (t *Transmitter) chunkFail(pt core.PacketType, bits int, ber float64) float64 {
	// Consecutive lookups repeat the previous key almost always (full
	// fragments of one SDU share a bit count), so check the last hit
	// before scanning the ring.
	if e := &t.cf[t.cfMRU]; e.valid && e.pt == pt && e.bits == int32(bits) && e.ber == ber {
		return e.prob
	}
	for i := range t.cf {
		e := &t.cf[i]
		if e.valid && e.pt == pt && e.bits == int32(bits) && e.ber == ber {
			t.cfMRU = i
			return e.prob
		}
	}
	p := t.chunkFailProb(pt, bits, ber)
	t.cf[t.cfNext] = cfEntry{ber: ber, prob: p, bits: int32(bits), pt: pt, valid: true}
	t.cfMRU = t.cfNext
	t.cfNext = (t.cfNext + 1) % len(t.cf)
	return p
}

// NewTransmitter builds a transmitter over link. Invalid configs panic
// (constructed once at testbed build time).
func NewTransmitter(cfg ARQConfig, link *radio.Link, rng *rand.Rand) *Transmitter {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Transmitter{cfg: cfg, link: link, rng: rng}
}

// Slot reports the next free piconet slot.
func (t *Transmitter) Slot() int64 { return t.slot }

// AdvanceTo moves the piconet clock forward (e.g. across idle periods).
// Moving backwards panics: slots are a shared monotone resource.
func (t *Transmitter) AdvanceTo(slot int64) {
	if slot < t.slot {
		panic(fmt.Sprintf("baseband: AdvanceTo %d before current slot %d", slot, t.slot))
	}
	t.slot = slot
}

// chunkFailProb computes the probability that the bits of one slot's share
// of the payload are not recovered, given the slot BER. For FEC-coded (DMx)
// packets a codeword survives zero errors or exactly one (corrected); under
// the clustered-error model, P(>=2 | >=1) = BurstContinue. For uncoded (DHx)
// packets any bit error corrupts the payload.
func (t *Transmitter) chunkFailProb(pt core.PacketType, bitsInSlot int, ber float64) float64 {
	if bitsInSlot <= 0 {
		return 0
	}
	if !pt.FEC() {
		return 1 - powOneMinus(ber, bitsInSlot)
	}
	// Codewords of 15 bits; a codeword fails when a burst continues past
	// the first errored bit.
	ncw := (bitsInSlot + 14) / 15
	pAnyCW := 1 - powOneMinus(ber, 15)
	pCWFail := pAnyCW * t.cfg.BurstContinue
	return 1 - powOneMinus(pCWFail, ncw)
}

// attemptSurvival computes the probability that one attempt's data slots all
// deliver their chunk of the payload intact, advancing the piconet clock
// across them. The product runs slot by slot in transmission order; on the
// fast path a whole-attempt memo (attemptOK) or the chunkFail memo supplies
// the factors, with cfg.SlowPath every factor is recomputed from scratch —
// both orderings and values are bit-identical.
func (t *Transmitter) attemptSurvival(pt core.PacketType, airBits, slots, bitsPerSlot int) float64 {
	pOK := 1.0
	end := t.slot + int64(slots)
	for s := 0; t.slot < end; {
		ber, until := t.link.BERRun(t.slot, end)
		if !t.cfg.SlowPath && s == 0 && until >= end {
			// The whole attempt sits in one channel state: one memoized
			// probability covers it.
			pOK = t.attemptOK(pt, airBits, slots, bitsPerSlot, ber)
			t.slot = end
			break
		}
		for ; t.slot < until; s++ {
			bits := bitsPerSlot
			if rem := airBits - s*bitsPerSlot; rem < bits {
				bits = rem
			}
			if t.cfg.SlowPath {
				pOK *= 1 - t.chunkFailProb(pt, bits, ber)
			} else {
				pOK *= 1 - t.chunkFail(pt, bits, ber)
			}
			t.slot++
		}
	}
	return pOK
}

// sendFragment runs the ARQ for one fragment, with attemptsDone attempts
// already consumed by the caller (the SDU batch path hands over fragments
// whose first attempt failed). Slots and elapsed time are measured from the
// call's entry.
func (t *Transmitter) sendFragment(pt core.PacketType, payloadLen, attemptsDone int) TxResult {
	airBits := AirBits(pt, payloadLen)
	slots := pt.Slots()
	bitsPerSlot := (airBits + slots - 1) / slots

	start := t.slot
	attempts := attemptsDone
	for {
		attempts++
		pOK := t.attemptSurvival(pt, airBits, slots, bitsPerSlot)
		// One Bernoulli decides the attempt; inlined (instead of stats) to
		// keep call overhead off the per-attempt path, with the same
		// draw-skipping edge cases.
		corrupt := false
		if pFail := 1 - pOK; pFail > 0 {
			corrupt = pFail >= 1 || t.rng.Float64() < pFail
		}
		t.slot++ // return slot carrying ACK/NAK

		if !corrupt {
			used := t.slot - start
			return TxResult{Outcome: Delivered, Attempts: attempts,
				Slots: used, Elapsed: sim.Time(used) * sim.Slot}
		}
		// Corrupted attempt: tiny chance the CRC fails to notice and the
		// receiver ACKs garbage.
		if stats(t.rng, t.cfg.CRCEscape) {
			used := t.slot - start
			return TxResult{Outcome: Corrupted, Attempts: attempts,
				Slots: used, Elapsed: sim.Time(used) * sim.Slot}
		}
		if attempts >= t.cfg.FlushLimit {
			used := t.slot - start
			return TxResult{Outcome: Dropped, Attempts: attempts,
				Slots: used, Elapsed: sim.Time(used) * sim.Slot}
		}
	}
}

// Send transmits one payload of payloadLen bytes as a packet of type pt,
// retransmitting on integrity failure up to the flush limit. Slots advance
// on the shared piconet clock; each attempt consumes the packet's slots plus
// one return slot for the ACK/NAK (the baseband's alternating TDD).
//
// Each attempt draws one Bernoulli against the probability that any slot's
// chunk of the payload is corrupted (1 - Π over slots of the chunk survival
// probabilities), instead of one draw per slot — the same corruption
// distribution for a fraction of the RNG and BER-query work.
func (t *Transmitter) Send(pt core.PacketType, payloadLen int) TxResult {
	if payloadLen < 0 || payloadLen > pt.Payload() {
		panic(fmt.Sprintf("baseband: payload %dB out of range for %v", payloadLen, pt))
	}
	return t.sendFragment(pt, payloadLen, 0)
}

// SDUResult reports the transmission of one multi-fragment SDU.
type SDUResult struct {
	Outcome Outcome
	Slots   int64    // total slots consumed, including return slots
	Elapsed sim.Time // Slots expressed as time
}

// sduBatchMax bounds the fragments one SendSDU window batches, and with it
// the SDU-shape power tables; longer SDUs (a DM1-segmented BNEP MTU is 100
// fragments) batch in consecutive windows.
const sduBatchMax = 128

// SendSDU transmits an SDU segmented into count fragments — full fragments
// of fullLen bytes plus a final one of lastLen — exactly as consecutive
// Send calls would, but batched: while the channel state holds, the first
// attempts of every remaining fragment are decided by a single uniform draw
// against the prefix-product failure CDF (the draw that locates the first
// failing fragment is the same draw that decided failure, by CDF inversion,
// so the per-fragment outcome distribution is untouched). Only fragments at
// a channel-state transition, or retransmissions after a located failure,
// fall back to the per-attempt path. This turns the dominant workload case —
// a multi-fragment SDU delivered cleanly inside a multi-minute good-state
// sojourn — into one BER query, one SDU-shape memo hit, one compare and one
// RNG draw.
func (t *Transmitter) SendSDU(pt core.PacketType, count, fullLen, lastLen int) SDUResult {
	if count < 1 {
		panic(fmt.Sprintf("baseband: SendSDU with %d fragments", count))
	}
	if fullLen < 0 || fullLen > pt.Payload() || lastLen < 0 || lastLen > pt.Payload() {
		panic(fmt.Sprintf("baseband: fragment lengths %d/%d out of range for %v",
			fullLen, lastLen, pt))
	}
	slots := pt.Slots()
	stride := int64(slots + 1) // data slots plus the ACK/NAK return slot
	start := t.slot

	for frag := 0; frag < count; {
		remaining := count - frag
		windowEnd := t.slot + int64(remaining)*stride
		ber, until := t.link.BERRun(t.slot, windowEnd)
		// n fragments have all their data slots inside this channel state; a
		// run that reaches the window's end covers every remaining one.
		n := remaining
		if until < windowEnd {
			n = 0
			if span := until - t.slot; span >= int64(slots) {
				n = int((span-int64(slots))/stride) + 1
			}
		}
		n = min(n, sduBatchMax)
		if n == 0 {
			// The next fragment's data slots straddle a state transition:
			// send it through the per-attempt path.
			fragLen := fullLen
			if frag == count-1 {
				fragLen = lastLen
			}
			res := t.sendFragment(pt, fragLen, 0)
			if res.Outcome != Delivered {
				return t.sduDone(res.Outcome, start)
			}
			frag++
			continue
		}
		// j is the first batched fragment whose first attempt failed, or -1.
		end := frag+n == count
		j := -1
		if t.cfg.SlowPath {
			j = t.slowWindow(pt, n, end, fullLen, lastLen, ber)
		} else {
			e := t.shape(pt, fullLen, lastLen, ber)
			e.grow(n)
			pAll := e.pows[n]
			if end {
				pAll = e.pows[n-1] * e.pLast
			}
			if u, failed := t.drawWindow(pAll); failed {
				// Invert u on the prefix-failure CDF F_k = 1 - pows[k+1];
				// only the window's final prefix involves pLast, and
				// u < F_{n-1} is already known.
				j = n - 1
				for k := 1; k < n; k++ {
					if u < 1-e.pows[k] {
						j = k - 1
						break
					}
				}
			}
		}
		if j < 0 {
			// Every batched fragment delivers on its first attempt.
			t.slot += int64(n) * stride
			frag += n
			continue
		}
		// Fragments before j delivered first-try; fragment j's first attempt
		// consumed its stride and was corrupted.
		t.slot += int64(j+1) * stride
		if stats(t.rng, t.cfg.CRCEscape) {
			return t.sduDone(Corrupted, start)
		}
		if t.cfg.FlushLimit <= 1 {
			return t.sduDone(Dropped, start)
		}
		fragLen := fullLen
		if frag+j == count-1 {
			fragLen = lastLen
		}
		res := t.sendFragment(pt, fragLen, 1)
		if res.Outcome != Delivered {
			return t.sduDone(res.Outcome, start)
		}
		frag += j + 1
	}
	return t.sduDone(Delivered, start)
}

// drawWindow decides the first attempts of a batched window that all
// survive with probability pAll: failed reports whether some fragment
// failed, and u is the deciding uniform, to be inverted on the
// prefix-failure CDF. No draw is made when failure is impossible.
func (t *Transmitter) drawWindow(pAll float64) (u float64, failed bool) {
	pFail := 1 - pAll
	if pFail <= 0 {
		return 0, false
	}
	u = t.rng.Float64()
	return u, u < pFail
}

// slowWindow is the memo-free reference for one batched window of n
// fragments (cfg.SlowPath): both fragment probabilities are recomputed from
// scratch, and the survival product and the CDF inversion run fragment by
// fragment in transmission order. end marks a window that closes the SDU,
// so its final fragment is the short one. It returns the index of the first
// fragment whose first attempt failed, or -1 when all n survived.
func (t *Transmitter) slowWindow(pt core.PacketType, n int, end bool, fullLen, lastLen int, ber float64) int {
	pFull := t.fragOK(pt, fullLen, ber)
	pLast := pFull
	if end {
		pLast = t.fragOK(pt, lastLen, ber)
	}
	pAll := 1.0
	for i := 0; i < n; i++ {
		p := pFull
		if i == n-1 {
			p = pLast
		}
		pAll *= p
	}
	u, failed := t.drawWindow(pAll)
	if !failed {
		return -1
	}
	// F_j = 1 - Π_{i<=j} pOK_i is non-decreasing and u < F_{n-1}, so the
	// scan always lands.
	prefix := 1.0
	for i := 0; i < n; i++ {
		p := pFull
		if i == n-1 {
			p = pLast
		}
		prefix *= p
		if u < 1-prefix {
			return i
		}
	}
	return n - 1
}

// fragOK returns the first-attempt survival probability of one fragment of
// payloadLen bytes at constant BER: memoized on the fast path, recomputed
// slot by slot (in the same order, yielding the same float) with
// cfg.SlowPath.
func (t *Transmitter) fragOK(pt core.PacketType, payloadLen int, ber float64) float64 {
	airBits := AirBits(pt, payloadLen)
	slots := pt.Slots()
	bitsPerSlot := (airBits + slots - 1) / slots
	if !t.cfg.SlowPath {
		return t.attemptOK(pt, airBits, slots, bitsPerSlot, ber)
	}
	p := 1.0
	for s := 0; s < slots; s++ {
		bits := bitsPerSlot
		if rem := airBits - s*bitsPerSlot; rem < bits {
			bits = rem
		}
		p *= 1 - t.chunkFailProb(pt, bits, ber)
	}
	return p
}

// sduDone assembles an SDUResult from the slots consumed since start.
func (t *Transmitter) sduDone(o Outcome, start int64) SDUResult {
	used := t.slot - start
	return SDUResult{Outcome: o, Slots: used, Elapsed: sim.Time(used) * sim.Slot}
}

// stats draws a Bernoulli without importing internal/stats (avoids a cycle-
// prone dependency for one function).
func stats(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return rng.Float64() < p
}

// powOneMinus computes (1-p)^n by squaring.
func powOneMinus(p float64, n int) float64 {
	out := 1.0
	base := 1 - p
	for n > 0 {
		if n&1 == 1 {
			out *= base
		}
		base *= base
		n >>= 1
	}
	return out
}
