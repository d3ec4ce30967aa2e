package analysis

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// synthRelay builds a relay-depth accumulator from a deterministic stream of
// probes (depths 1..3, exponential-ish delays) plus a few unreachables.
func synthRelay(seed uint64, probes int) *RelayDepthAccum {
	rng := rand.New(rand.NewPCG(seed, 0xACC))
	a := NewRelayDepthAccum()
	for i := 0; i < probes; i++ {
		a.AddProbe(1+rng.IntN(3), rng.ExpFloat64()*40)
	}
	for i := 0; i < int(seed%4); i++ {
		a.AddUnreachable()
	}
	return a
}

// closeEnough compares two float64s to a relative 1e-9 — the slack the
// parallel Welford combination's non-associative rounding needs, far below
// the %.2f the reports print at.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestRelayDepthMergeLaws checks the merge algebra the hierarchical roll-up
// leans on: nil is the identity, counts merge exactly, and regrouping the
// same partials ((a⊕b)⊕c versus a⊕(b⊕c)) moves nothing the report can see —
// probe counts and unreachables are exact sums and the delay moments agree
// to within rounding far below the rendered precision.
func TestRelayDepthMergeLaws(t *testing.T) {
	build := func() (*RelayDepthAccum, *RelayDepthAccum, *RelayDepthAccum) {
		return synthRelay(1, 200), synthRelay(2, 150), synthRelay(3, 75)
	}

	a, _, _ := build()
	before := a.Probes()
	a.Merge(nil)
	if a.Probes() != before {
		t.Fatal("Merge(nil) must be the identity")
	}

	left, b1, c1 := build()
	left.Merge(b1)
	left.Merge(c1) // (a ⊕ b) ⊕ c

	a2, right, c2 := build()
	right.Merge(c2)
	a2.Merge(right) // a ⊕ (b ⊕ c)

	wantProbes, wantUnreach := 0, 0
	for _, acc := range []*RelayDepthAccum{synthRelay(1, 200), synthRelay(2, 150), synthRelay(3, 75)} {
		wantProbes += acc.Probes()
		wantUnreach += acc.Unreachable
	}
	if left.Probes() != wantProbes || a2.Probes() != wantProbes {
		t.Errorf("merged probe counts %d / %d, want the exact sum %d", left.Probes(), a2.Probes(), wantProbes)
	}
	if left.Unreachable != wantUnreach || a2.Unreachable != wantUnreach {
		t.Errorf("merged unreachables %d / %d, want %d", left.Unreachable, a2.Unreachable, wantUnreach)
	}
	for _, d := range left.Depths() {
		ls, rs := left.ByDepth[d], a2.ByDepth[d]
		if rs == nil || ls.N() != rs.N() {
			t.Fatalf("depth %d: groupings disagree on probe count", d)
		}
		if !closeEnough(ls.Mean(), rs.Mean()) || ls.Min() != rs.Min() || ls.Max() != rs.Max() {
			t.Errorf("depth %d: groupings disagree on moments: mean %v vs %v", d, ls.Mean(), rs.Mean())
		}
	}
	if l, r := left.RenderSampled(0.5), a2.RenderSampled(0.5); l != r {
		t.Errorf("regrouped merges render differently:\n%s\nvs\n%s", l, r)
	}
}

// TestEstimatedProbes pins the Horvitz–Thompson correction: an observed
// count stands in for observed/fraction exhaustive probes, degenerate
// fractions mean no correction, and a depth never observed estimates zero.
func TestEstimatedProbes(t *testing.T) {
	a := NewRelayDepthAccum()
	for i := 0; i < 8; i++ {
		a.AddProbe(2, float64(i))
	}
	if got := a.EstimatedProbes(2, 0.25); got != 32 {
		t.Errorf("EstimatedProbes(2, 0.25) = %v, want 32", got)
	}
	for _, f := range []float64{0, 1, -1, 2} {
		if got := a.EstimatedProbes(2, f); got != 8 {
			t.Errorf("EstimatedProbes(2, %v) = %v, want the uncorrected 8", f, got)
		}
	}
	if got := a.EstimatedProbes(5, 0.25); got != 0 {
		t.Errorf("EstimatedProbes(5, 0.25) = %v for an unobserved depth, want 0", got)
	}
	if !strings.Contains(a.RenderSampled(0.25), "32.0") {
		t.Errorf("RenderSampled(0.25) does not show the estimated column:\n%s", a.RenderSampled(0.25))
	}
}

// synthBridge builds a bridge accumulator with activity across every
// counter the merge must carry.
func synthBridge(name string, serves []int, seed uint64) *BridgeAccum {
	rng := rand.New(rand.NewPCG(seed, 0xB41D6E))
	a := NewBridgeAccum(name, "bridge-"+name, serves)
	for i := 0; i < 50; i++ {
		a.AddHop()
		p := serves[rng.IntN(len(serves))]
		switch rng.IntN(5) {
		case 0:
			a.AddRelayLoss(p)
		case 1:
			a.AddCorruption(p)
		case 2:
			a.AddOutage(core.UFConnectFailed, rng.ExpFloat64()*30)
			a.AddOutageDrop(p)
		case 3:
			a.AddQueueDrop(p)
		default:
			a.AddDelivery(p, rng.ExpFloat64()*5)
		}
	}
	return a
}

// TestBridgeAccumMergeLaws checks the all-bridge summary's merge algebra:
// regrouping the same bridge rows leaves every exact counter, the per-kind
// failure tallies and the piconet-matched coupling rows identical, keeps
// the Welford moments within rounding, and yields a sorted Serves union.
func TestBridgeAccumMergeLaws(t *testing.T) {
	build := func() (*BridgeAccum, *BridgeAccum, *BridgeAccum) {
		return synthBridge("a", []int{0, 1}, 4),
			synthBridge("b", []int{1, 2}, 5),
			synthBridge("c", []int{3, 0}, 6)
	}

	left, b1, c1 := build()
	left.Merge(b1)
	left.Merge(c1) // (a ⊕ b) ⊕ c

	a2, right, c2 := build()
	right.Merge(c2)
	a2.Merge(right) // a ⊕ (b ⊕ c)

	if left.Hops != a2.Hops || left.Relayed != a2.Relayed || left.RelayLost != a2.RelayLost ||
		left.RelayCorrupted != a2.RelayCorrupted || left.Outages != a2.Outages {
		t.Fatalf("groupings disagree on exact counters: %+v vs %+v", left, a2)
	}
	for k, n := range left.FailuresByKind {
		if a2.FailuresByKind[k] != n {
			t.Errorf("failure kind %v: %d vs %d across groupings", k, n, a2.FailuresByKind[k])
		}
	}
	if left.Downtime.N() != a2.Downtime.N() || !closeEnough(left.Downtime.Sum(), a2.Downtime.Sum()) {
		t.Errorf("downtime disagrees across groupings: %v vs %v", left.Downtime.Sum(), a2.Downtime.Sum())
	}
	if left.RelayLatency.N() != a2.RelayLatency.N() || !closeEnough(left.RelayLatency.Mean(), a2.RelayLatency.Mean()) {
		t.Errorf("relay latency disagrees across groupings: %v vs %v", left.RelayLatency.Mean(), a2.RelayLatency.Mean())
	}

	wantServes := []int{0, 1, 2, 3}
	if len(left.Serves) != len(wantServes) {
		t.Fatalf("merged Serves = %v, want the union %v", left.Serves, wantServes)
	}
	for i, p := range wantServes {
		if left.Serves[i] != p || a2.Serves[i] != p {
			t.Fatalf("merged Serves not the sorted union: %v / %v, want %v", left.Serves, a2.Serves, wantServes)
		}
	}
	if len(left.Coupling) != len(a2.Coupling) {
		t.Fatalf("coupling row counts differ: %d vs %d", len(left.Coupling), len(a2.Coupling))
	}
	for i := range left.Coupling {
		l, r := left.Coupling[i], a2.Coupling[i]
		if l.Piconet != r.Piconet || l.Outages != r.Outages || l.Delivered != r.Delivered ||
			l.Lost != r.Lost || l.Corrupted != r.Corrupted ||
			l.DroppedInOutage != r.DroppedInOutage || l.DroppedQueueFull != r.DroppedQueueFull ||
			!closeEnough(l.OutageSeconds, r.OutageSeconds) {
			t.Errorf("coupling row %d disagrees across groupings: %+v vs %+v", i, l, r)
		}
	}
}

// TestScatternetFoldGuards exercises the fold's error paths: folding a
// piconet without aggregates, a depend trace that disagrees with the
// accumulated failure count, partials with mismatched evidence windows
// (which must leave the fold as it was), and finalizing an empty fold.
func TestScatternetFoldGuards(t *testing.T) {
	f := NewScatternetFold("With only SIRAs")
	if err := f.AddPiconet(0, nil, nil); err == nil {
		t.Error("AddPiconet(nil aggregates) must error")
	}
	if err := f.AddPiconet(0, &Aggregates{}, []DependEvent{{}}); err == nil {
		t.Error("AddPiconet with a trace/failure-count mismatch must error")
	}
	if _, _, err := f.Finalize(); err == nil {
		t.Error("Finalize of an empty fold must error")
	}

	g := NewScatternetFold("With only SIRAs")
	if err := g.AddPiconet(0, &Aggregates{Window: sim.Second, Radius: sim.Second}, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.AddPiconet(1, &Aggregates{Window: 2 * sim.Second, Radius: sim.Second}, nil); err == nil {
		t.Error("AddPiconet with a mismatched window must error")
	}
	h := NewScatternetFold("With only SIRAs")
	if err := h.AddPiconet(2, &Aggregates{Window: 2 * sim.Second, Radius: sim.Second}, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Merge(h); err == nil {
		t.Error("Merge of partials with mismatched windows must error")
	}
	if err := g.Merge(nil); err != nil {
		t.Errorf("Merge(nil) must be a no-op, got %v", err)
	}
	if _, ov, err := g.Finalize(); err != nil || len(ov.Rows) != 1 {
		t.Errorf("after refusing piconet 1 the fold finalizes to %+v, %v; want piconet 0's row alone "+
			"(a district derives its cursor from the rows)", ov, err)
	}
}
