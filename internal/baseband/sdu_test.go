package baseband

import (
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/sim"
)

// TestSendSDUMatchesPerFragmentSends checks that the batched SDU path has
// the same outcome distribution as a loop of per-fragment Sends: the batch
// draw plus CDF inversion is mathematically the same process, so loss and
// corruption rates (and mean slot consumption) must agree statistically.
func TestSendSDUMatchesPerFragmentSends(t *testing.T) {
	const (
		sdus     = 30000
		count    = 5
		fullLen  = 339
		lastLen  = 120
		pt       = core.PTDH5
		tolRatio = 0.08
	)
	type tally struct {
		lost, corrupted int
		slots           int64
	}
	run := func(batched bool, seedA, seedB uint64) tally {
		cfg := radio.DefaultConfig(0)
		cfg.MeanGoodDur = 2 * sim.Second
		cfg.MeanBadDur = 100 * sim.Millisecond
		cfg.BERBad = 0.01
		cfg.InterferencePerHour = 0
		link := radio.NewLink(cfg, testRNG(seedA, seedA))
		tx := NewTransmitter(DefaultARQConfig(), link, testRNG(seedB, seedB))
		var out tally
		for i := 0; i < sdus; i++ {
			if batched {
				res := tx.SendSDU(pt, count, fullLen, lastLen)
				out.slots += res.Slots
				switch res.Outcome {
				case Dropped:
					out.lost++
				case Corrupted:
					out.corrupted++
				}
			} else {
				for f := 0; f < count; f++ {
					l := fullLen
					if f == count-1 {
						l = lastLen
					}
					res := tx.Send(pt, l)
					out.slots += res.Slots
					if res.Outcome == Dropped {
						out.lost++
						break
					}
					if res.Outcome == Corrupted {
						out.corrupted++
						break
					}
				}
			}
		}
		return out
	}

	a := run(true, 101, 202)
	b := run(false, 303, 404)
	t.Logf("batched: lost %d corrupted %d slots %d; per-fragment: lost %d corrupted %d slots %d",
		a.lost, a.corrupted, a.slots, b.lost, b.corrupted, b.slots)
	if a.lost == 0 || b.lost == 0 {
		t.Fatalf("no losses observed (batched %d, per-fragment %d): channel too clean for the test",
			a.lost, b.lost)
	}
	relDiff := func(x, y int) float64 {
		fx, fy := float64(x), float64(y)
		return (fx - fy) / fy
	}
	if d := relDiff(a.lost, b.lost); d > tolRatio || d < -tolRatio {
		t.Errorf("loss rates diverge: batched %d vs per-fragment %d (%.1f%%)",
			a.lost, b.lost, 100*d)
	}
	ds := (float64(a.slots) - float64(b.slots)) / float64(b.slots)
	if ds > 0.02 || ds < -0.02 {
		t.Errorf("slot consumption diverges: batched %d vs per-fragment %d (%.2f%%)",
			a.slots, b.slots, 100*ds)
	}
}

// sduTwin drives a memoized transmitter and a SlowPath one over
// identically seeded links and RNGs, so any divergence between the
// survival memo and the scalar reference shows up as a different result,
// slot or RNG position.
type sduTwin struct {
	fast, slow         *Transmitter
	fastRNG, slowRNG   *rand.Rand // transmitter draws
	fastLink, slowLink *rand.Rand // channel draws
}

func newSDUTwin(ch radio.Config, arq ARQConfig, seed uint64) *sduTwin {
	w := &sduTwin{
		fastRNG: testRNG(seed, 1), slowRNG: testRNG(seed, 1),
		fastLink: testRNG(seed, 2), slowLink: testRNG(seed, 2),
	}
	slowCfg := arq
	slowCfg.SlowPath = true
	w.fast = NewTransmitter(arq, radio.NewLink(ch, w.fastLink), w.fastRNG)
	w.slow = NewTransmitter(slowCfg, radio.NewLink(ch, w.slowLink), w.slowRNG)
	return w
}

// send idles both transmitters for gap slots, then sends one SDU on each
// and fails on the first differing result.
func (w *sduTwin) send(t *testing.T, gap int64, pt core.PacketType, count, fullLen, lastLen int) {
	t.Helper()
	w.fast.AdvanceTo(w.fast.Slot() + gap)
	w.slow.AdvanceTo(w.slow.Slot() + gap)
	got := w.fast.SendSDU(pt, count, fullLen, lastLen)
	want := w.slow.SendSDU(pt, count, fullLen, lastLen)
	if got != want {
		t.Fatalf("%v x%d (%d/%d B) at slot %d: fast %+v, slow %+v",
			pt, count, fullLen, lastLen, w.slow.Slot()-want.Slots, got, want)
	}
}

// check recomputes every live memo entry from scratch — decisions hide
// one-ulp drift, so each table must equal the scalar running product bit
// for bit — then compares the final slot and the next draw of every RNG.
func (w *sduTwin) check(t *testing.T) {
	t.Helper()
	for _, e := range w.fast.memos {
		if e.ok == nil {
			continue
		}
		for n, p := range e.ok {
			if want := w.slow.scalarFragOK(e.pt, n, e.ber); p == p && p != want {
				t.Fatalf("memo %v at BER %v: ok[%d] %v, scalar %v", e.pt, e.ber, n, p, want)
			}
		}
		if e.powsLen < 0 {
			continue
		}
		pFull := w.slow.scalarFragOK(e.pt, e.powsLen, e.ber)
		prod := 1.0
		for k, p := range e.pows {
			if p != prod {
				t.Fatalf("memo %v %d B: pows[%d] %v, scalar product %v", e.pt, e.powsLen, k, p, prod)
			}
			prod *= pFull
		}
	}
	if w.fast.Slot() != w.slow.Slot() {
		t.Fatalf("final slot: fast %d, slow %d", w.fast.Slot(), w.slow.Slot())
	}
	if f, s := w.fastRNG.Uint64(), w.slowRNG.Uint64(); f != s {
		t.Fatalf("next transmitter draw: fast %#x, slow %#x", f, s)
	}
	if f, s := w.fastLink.Uint64(), w.slowLink.Uint64(); f != s {
		t.Fatalf("next channel draw: fast %#x, slow %#x", f, s)
	}
}

// sduChannels are the channels the fast/slow comparisons run on: a calm
// noisy one whose multi-second sojourns let long SDUs batch in windows of
// sduBatchMax, and one whose states and interference bursts flip every few
// tens of milliseconds, so windows split at transitions and the memo sees
// many BERs.
func sduChannels() map[string]radio.Config {
	calm := radio.DefaultConfig(0)
	calm.MeanGoodDur = 4 * sim.Second
	calm.MeanBadDur = 50 * sim.Millisecond
	calm.BERGood = 5e-5
	calm.BERBad = 3e-3
	calm.InterferencePerHour = 0

	flappy := radio.DefaultConfig(3)
	flappy.MeanGoodDur = 40 * sim.Millisecond
	flappy.MeanBadDur = 8 * sim.Millisecond
	flappy.BERGood = 1e-5
	flappy.BERBad = 2e-3
	flappy.InterferencePerHour = 7200
	flappy.MeanInterferenceDur = 5 * sim.Millisecond
	flappy.BERInterference = 8e-3
	return map[string]radio.Config{"calm": calm, "flappy": flappy}
}

// TestSendSDUFastMatchesSlowPath pins the survival memo to the SlowPath
// scalar loop bit for bit: all six ACL types, every count from 1 to 300
// (so long SDUs split at sduBatchMax), full and short fragment lengths,
// shapes repeating and alternating as a workload cycle sends them, idle
// gaps, and a one-attempt flush limit with frequent CRC escapes.
func TestSendSDUFastMatchesSlowPath(t *testing.T) {
	lossy := DefaultARQConfig()
	lossy.FlushLimit = 1
	lossy.CRCEscape = 0.2
	arqs := map[string]ARQConfig{"default": DefaultARQConfig(), "lossy": lossy}
	for chName, ch := range sduChannels() {
		for arqName, arq := range arqs {
			t.Run(chName+"/"+arqName, func(t *testing.T) {
				w := newSDUTwin(ch, arq, 7)
				drive := testRNG(8, 8)
				for count := 1; count <= 300; count++ {
					for _, pt := range core.PacketTypes() {
						budget := pt.Payload()
						lastLen := 1 + (count*37)%budget
						fullLen := budget
						if count%5 == 0 {
							fullLen = 1 + (count*11)%budget
						}
						gap := int64(drive.IntN(4096))
						// A send run and a receive run of the same cycle.
						for rep := 0; rep < 2; rep++ {
							w.send(t, gap, pt, count, fullLen, lastLen)
						}
						w.send(t, 0, pt, 1+count/3, budget, budget-lastLen/2)
					}
				}
				w.check(t)
			})
		}
	}
}

// FuzzSendSDU runs the fast/slow comparison over fuzzed SDU sequences:
// each five-byte group of prog picks a packet type, a count in 1..512, the
// full and last fragment lengths and an idle gap before the send.
func FuzzSendSDU(f *testing.F) {
	f.Add(uint64(1), false, []byte{5, 4, 0, 120, 0, 5, 4, 0, 120, 0, 0, 99, 1, 3, 9})
	f.Add(uint64(2), true, []byte{0, 44, 1, 16, 3, 2, 200, 0, 180, 0, 4, 7, 30, 2, 255})
	f.Fuzz(func(t *testing.T, seed uint64, flappy bool, prog []byte) {
		channel := "calm"
		if flappy {
			channel = "flappy"
		}
		arq := DefaultARQConfig()
		arq.CRCEscape = 0.05
		w := newSDUTwin(sduChannels()[channel], arq, seed)
		for steps := 0; len(prog) >= 5 && steps < 64; steps++ {
			pt := core.PacketTypes()[int(prog[0])%len(core.PacketTypes())]
			budget := pt.Payload()
			count := 1 + (int(prog[1])|int(prog[2]&1)<<8)%512
			fullLen := budget - int(prog[2]>>1)%(budget+1)
			lastLen := int(prog[3]) % (budget + 1)
			gap := int64(prog[4]) * int64(prog[4]) * 16
			w.send(t, gap, pt, count, fullLen, lastLen)
			prog = prog[5:]
		}
		w.check(t)
	})
}

// TestCleanRunMatchesSendSDU pins CleanRun's contract to SendSDU. One
// transmitter resolves every SDU CleanRun reports with its own window draw
// on the transmitter's generator, given back when it fails, and sends
// every other SDU through SendSDU; its twin sends every SDU through
// SendSDU. Runs of random shapes (counts up to ~300, so long SDUs exceed
// one window), idle gaps and both channels leave the twins on the same
// slot after every run and on the same stream positions at the end.
// CleanRun reports no run under SlowPath.
func TestCleanRunMatchesSendSDU(t *testing.T) {
	for chName, ch := range sduChannels() {
		t.Run(chName, func(t *testing.T) {
			src := sim.NewPCG(7, 1)
			runLink, refLink := testRNG(7, 2), testRNG(7, 2)
			run := NewTransmitter(DefaultARQConfig(), radio.NewLink(ch, runLink), rand.New(src))
			ref := NewTransmitter(DefaultARQConfig(), radio.NewLink(ch, refLink), testRNG(7, 1))
			drive := testRNG(9, 9)
			clean := 0
			for i := 0; i < 2000; i++ {
				pt := core.PacketTypes()[drive.IntN(len(core.PacketTypes()))]
				s := planSDU(pt, 1+drive.IntN(300*pt.Payload()))
				n := 1 + drive.IntN(50)
				gap := int64(drive.IntN(3)) * int64(drive.IntN(4096))
				run.AdvanceTo(run.Slot() + gap)
				ref.AdvanceTo(ref.Slot() + gap)
				for k := 0; k < n; {
					fit, per, pFail := run.CleanRun(s.pt, s.count, s.fullLen, s.lastLen, n-k)
					for ; fit > 0; fit-- {
						saved := *src
						if pFail > 0 && src.Float64() < pFail {
							*src = saved
							break
						}
						run.AdvanceTo(run.Slot() + per)
						k++
						clean++
					}
					if k < n {
						run.SendSDU(s.pt, s.count, s.fullLen, s.lastLen)
						k++
					}
				}
				for k := 0; k < n; k++ {
					ref.SendSDU(s.pt, s.count, s.fullLen, s.lastLen)
				}
				if run.Slot() != ref.Slot() {
					t.Fatalf("run %d (%v x%d, %d SDUs): slot %d, reference %d", i, s.pt, s.count, n, run.Slot(), ref.Slot())
				}
			}
			if a, b := src.Uint64(), ref.rng.Uint64(); a != b {
				t.Fatalf("next transmitter draw %#x, reference %#x", a, b)
			}
			if a, b := runLink.Uint64(), refLink.Uint64(); a != b {
				t.Fatalf("next channel draw %#x, reference %#x", a, b)
			}
			if clean == 0 {
				t.Fatal("CleanRun never reported a clean SDU")
			}
		})
	}
	slow := DefaultARQConfig()
	slow.SlowPath = true
	tx := NewTransmitter(slow, noisyLink(1e-5, testRNG(3, 3)), testRNG(4, 4))
	tx.SendSDU(core.PTDH5, 5, 339, 120)
	if fit, _, _ := tx.CleanRun(core.PTDH5, 5, 339, 120, 10); fit != 0 {
		t.Fatalf("SlowPath CleanRun fit %d, want 0", fit)
	}
}
