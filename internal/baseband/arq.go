package baseband

import (
	"fmt"
	"math"
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

	// BurstContinue is the intra-burst bit-error clustering density: given
	// one bit error in a codeword, the next bit errors too with this
	// probability (0.3, the classic intra-burst density), so a DMx codeword
	// that takes any error fails its single-error-correcting FEC with
	// probability BurstContinue.
	BurstContinue float64

	// SlowPath disables the transmitter's shortcuts: every fragment and
	// attempt probability is recomputed from scratch instead of served
	// from the (packet type, BER) survival memo, each batched SDU window
	// runs the per-fragment product and CDF inversion scalar by scalar
	// instead of reading the memo's power table, every BER query goes to
	// the link instead of the cached channel-state span, and CleanRun
	// reports no clean run, so a pipe sends every packet through the
	// per-packet path instead of the run-length transfer kernel. Control
	// flow — run-length BER queries, window splits and RNG draws included
	// — is identical on both settings, and probabilities combine in the
	// same order, so campaign outputs are bit-identical; the knob exists so
	// the seed-equivalence test and TestSendSDUFastMatchesSlowPath can
	// prove the shortcuts are sound. (The run-length API itself is pinned
	// to per-slot queries by radio's TestBERRunMatchesSlotBER, the batch
	// draw to per-fragment sends by TestSendSDUMatchesPerFragmentSends, and
	// the transfer kernel to per-packet sends by stack's
	// TestSendRunMatchesPerPacket.)
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

	// The link's BER is runBER from the slot of its last BERRun query up
	// to runUntil. Slots only advance and the transmitter is the link's
	// only consumer, so the answer holds until the clock reaches runUntil.
	runBER   float64
	runUntil int64

	// memos holds one first-attempt survival memo per packet type, for the
	// BER the type was last sent at. A send at another BER (a new channel
	// state) re-tags the entry and refills it lazily in its own storage, so
	// a transmitter holds at most one table set per packet type.
	memos [core.NumPacketTypes]okMemo
}

// okMemo memoizes first-attempt fragment survival at one (packet type,
// BER). Its tables are allocated when the type is first sent, so a
// transmitter pays only for the packet types it meets.
type okMemo struct {
	ber float64
	// ok[n] is the probability that a fragment of n payload bytes survives
	// its first attempt, NaN until first asked for; it is filled by the
	// same slot-order product the SlowPath computes, so it is that float.
	ok []float64
	// pows[k] is the probability that k consecutive full fragments of
	// powsLen bytes survive their first attempts: pows[0] = 1, pows[k] =
	// pows[k-1] * ok[powsLen], built by sequential multiplication in
	// transmission order — the same floats the SlowPath running product
	// yields. It grows to the longest window seen (at most sduBatchMax+1
	// entries).
	pows    []float64
	powsLen int
	pt      core.PacketType
}

// memo returns the survival memo for (pt, ber), re-tagging the packet
// type's entry when ber differs from the BER it holds.
func (t *Transmitter) memo(pt core.PacketType, ber float64) *okMemo {
	e := &t.memos[pt]
	if e.ber != ber || e.ok == nil {
		if e.ok == nil {
			e.ok = make([]float64, pt.Payload()+1)
		}
		for i := range e.ok {
			e.ok[i] = math.NaN()
		}
		e.ber, e.pt, e.powsLen = ber, pt, -1
	}
	return e
}

// fragOK returns the first-attempt survival of an n-byte fragment.
func (e *okMemo) fragOK(t *Transmitter, n int) float64 {
	p := e.ok[n]
	if p != p { // NaN: not computed yet
		p = t.scalarFragOK(e.pt, n, e.ber)
		e.ok[n] = p
	}
	return p
}

// powers returns the power table of fullLen-byte fragments, grown through
// index n.
func (e *okMemo) powers(t *Transmitter, fullLen, n int) []float64 {
	if e.powsLen != fullLen {
		e.pows = append(e.pows[:0], 1, e.fragOK(t, fullLen))
		e.powsLen = fullLen
	}
	for pFull := e.pows[1]; len(e.pows) <= n; {
		e.pows = append(e.pows, e.pows[len(e.pows)-1]*pFull)
	}
	return e.pows
}

// berRun answers link.BERRun(from, to), from the cached span while from
// lies before its end; with cfg.SlowPath every query goes to the link.
func (t *Transmitter) berRun(from, to int64) (ber float64, until int64) {
	if t.cfg.SlowPath || from >= t.runUntil {
		t.runBER, t.runUntil = t.link.BERRun(from, math.MaxInt64)
	}
	return t.runBER, min(t.runUntil, to)
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
// fast path an attempt inside one channel state reads the survival memo
// instead, which holds the same float.
func (t *Transmitter) attemptSurvival(pt core.PacketType, payloadLen, airBits, slots, bitsPerSlot int) float64 {
	pOK := 1.0
	end := t.slot + int64(slots)
	for s := 0; t.slot < end; {
		ber, until := t.berRun(t.slot, end)
		if !t.cfg.SlowPath && s == 0 && until >= end {
			// The whole attempt sits in one channel state: one memoized
			// probability covers it.
			pOK = t.memo(pt, ber).fragOK(t, payloadLen)
			t.slot = end
			break
		}
		for ; t.slot < until; s++ {
			bits := bitsPerSlot
			if rem := airBits - s*bitsPerSlot; rem < bits {
				bits = rem
			}
			pOK *= 1 - t.chunkFailProb(pt, bits, ber)
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
		pOK := t.attemptSurvival(pt, payloadLen, airBits, slots, bitsPerSlot)
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
// distribution for a fraction of the RNG and BER-query work. The data plane
// sends through SendSDU and CleanRun; Send is the single-fragment
// reference they must reproduce.
//
// Test oracle: TestSendSDUMatchesPerFragmentSends.
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
// the survival memo's power tables; longer SDUs (a DM1-segmented BNEP MTU
// is 100 fragments) batch in consecutive windows.
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
// sojourn — into one cached BER span, two survival-memo loads, one compare
// and one RNG draw.
func (t *Transmitter) SendSDU(pt core.PacketType, count, fullLen, lastLen int) SDUResult {
	checkShape(pt, count, fullLen, lastLen)
	slots := pt.Slots()
	stride := int64(slots + 1) // data slots plus the ACK/NAK return slot
	start := t.slot

	for frag := 0; frag < count; {
		remaining := count - frag
		windowEnd := t.slot + int64(remaining)*stride
		ber, until := t.berRun(t.slot, windowEnd)
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
			e := t.memo(pt, ber)
			pows := e.powers(t, fullLen, n)
			pAll := pows[n]
			if end {
				pAll = pows[n-1] * e.fragOK(t, lastLen)
			}
			if u, failed := t.drawWindow(pAll); failed {
				// Invert u on the prefix-failure CDF F_k = 1 - pows[k+1];
				// only the window's final prefix involves pLast, and
				// u < F_{n-1} is already known.
				j = n - 1
				for k := 1; k < n; k++ {
					if u < 1-pows[k] {
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

// checkShape panics on an SDU shape no segmentation plan yields.
func checkShape(pt core.PacketType, count, fullLen, lastLen int) {
	if count < 1 {
		panic(fmt.Sprintf("baseband: SDU with %d fragments", count))
	}
	if fullLen < 0 || fullLen > pt.Payload() || lastLen < 0 || lastLen > pt.Payload() {
		panic(fmt.Sprintf("baseband: fragment lengths %d/%d out of range for %v",
			fullLen, lastLen, pt))
	}
}

// CleanRun prepares a run of back-to-back SDUs of one shape (as for
// SendSDU) for the transfer kernel. It reports per, the slots one SDU takes
// when every fragment delivers first time; fit, how many of the next max
// such SDUs lie wholly inside the current channel state; and pFail, the
// probability that such an SDU's first attempts do not all survive. Each of
// those fit SDUs is sent by SendSDU as one batched window: one draw u on
// the transmitter's stream, made only when pFail > 0, and the SDU takes
// exactly per slots when u >= pFail. A caller that makes those draws
// itself and advances the clock by per for each clean one leaves the
// transmitter exactly where SendSDU would; the first SDU whose draw fails
// must go to SendSDU with the draw given back. fit is 0 under
// cfg.SlowPath, for SDUs longer than one window, and when the clock has
// left the channel-state span of the last BER query, so the next SendSDU
// makes the query that opens the next span.
func (t *Transmitter) CleanRun(pt core.PacketType, count, fullLen, lastLen, max int) (fit int, per int64, pFail float64) {
	checkShape(pt, count, fullLen, lastLen)
	per = int64(count) * int64(pt.Slots()+1)
	// Only the cached span is read: a BER query is a draw too (the link
	// samples its sojourns when a query crosses them), and the next packet
	// may fault before the per-packet path would query.
	if t.cfg.SlowPath || count > sduBatchMax || max <= 0 || t.slot >= t.runUntil {
		return 0, per, 0
	}
	if fit = int(min((t.runUntil-t.slot)/per, int64(max))); fit == 0 {
		return 0, per, 0
	}
	e := t.memo(pt, t.runBER)
	pAll := e.powers(t, fullLen, count-1)[count-1] * e.fragOK(t, lastLen)
	return fit, per, 1 - pAll
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
	pFull := t.scalarFragOK(pt, fullLen, ber)
	pLast := pFull
	if end {
		pLast = t.scalarFragOK(pt, lastLen, ber)
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

// scalarFragOK computes a fragment's first-attempt survival from scratch:
// the product of its slots' chunk survival probabilities, in slot order.
func (t *Transmitter) scalarFragOK(pt core.PacketType, payloadLen int, ber float64) float64 {
	airBits := AirBits(pt, payloadLen)
	slots := pt.Slots()
	bitsPerSlot := (airBits + slots - 1) / slots
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
