package scatternet

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// exhaustivePairs is the canonical full ordered-pair set the sampler must
// degenerate to at fraction 1.
func exhaustivePairs(piconets int) []probePair {
	var pairs []probePair
	for src := 0; src < piconets; src++ {
		for dst := 0; dst < piconets; dst++ {
			if src != dst {
				pairs = append(pairs, probePair{src: src, dst: dst})
			}
		}
	}
	return pairs
}

// TestSamplePairsExhaustive pins the degenerate fractions: 0 (the unset zero
// value), 1 and anything outside (0, 1) must yield exactly the exhaustive
// ordered-pair set in canonical order — the property that makes the default
// configuration byte-identical to the pre-sampling engine.
func TestSamplePairsExhaustive(t *testing.T) {
	want := exhaustivePairs(5)
	for _, fraction := range []float64{0, 1, -0.3, 1.5} {
		got := samplePairs(5, fraction, 7)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("samplePairs(5, %v, 7) = %v, want the exhaustive set %v", fraction, got, want)
		}
	}
	if got := samplePairs(1, 1, 7); len(got) != 0 {
		t.Errorf("samplePairs(1, 1, 7) = %v, want no pairs for a single piconet", got)
	}
}

// TestSamplePairsDeterministic proves the sample is a pure function of
// (piconets, fraction, seed) and that distinct seeds draw distinct subsets.
func TestSamplePairsDeterministic(t *testing.T) {
	a := samplePairs(40, 0.3, 11)
	b := samplePairs(40, 0.3, 11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("samplePairs is not deterministic for a fixed (piconets, fraction, seed)")
	}
	c := samplePairs(40, 0.3, 12)
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 11 and 12 drew the same 0.3-fraction subset of 1560 pairs")
	}
}

// TestSamplePairsSubsetProperties checks the structural invariants of any
// sampled subset: valid ordered pairs only, strictly ascending canonical
// order (so it is a subsequence of the exhaustive set), no duplicates.
func TestSamplePairsSubsetProperties(t *testing.T) {
	const piconets = 30
	pairs := samplePairs(piconets, 0.4, 3)
	if len(pairs) == 0 {
		t.Fatal("0.4-fraction sample of 870 pairs came back empty")
	}
	less := func(a, b probePair) bool {
		return a.src < b.src || (a.src == b.src && a.dst < b.dst)
	}
	for i, p := range pairs {
		if p.src < 0 || p.src >= piconets || p.dst < 0 || p.dst >= piconets || p.src == p.dst {
			t.Fatalf("pair %d = %v is not a valid ordered pair", i, p)
		}
		if i > 0 && !less(pairs[i-1], p) {
			t.Fatalf("pairs %d..%d out of canonical order: %v then %v", i-1, i, pairs[i-1], p)
		}
	}
}

// TestSamplePairsFractionCI checks the sample size against the binomial
// model: over n = P(P-1) independent coins of probability f, the observed
// count must land within 4 standard deviations of nf. With the sampler's
// fixed PCG stream this is a deterministic assertion, not a flaky one; the
// bound just documents how much slack "statistically faithful" gets.
func TestSamplePairsFractionCI(t *testing.T) {
	const piconets = 60
	n := float64(piconets * (piconets - 1))
	for _, f := range []float64{0.1, 0.5, 0.9} {
		got := float64(len(samplePairs(piconets, f, 5)))
		sigma := math.Sqrt(n * f * (1 - f))
		if math.Abs(got-n*f) > 4*sigma {
			t.Errorf("fraction %v: sampled %v of %v pairs, want %v ± %v (4σ)", f, got, n, n*f, 4*sigma)
		}
	}
}

// referenceRoute is the legacy per-pair BFS (early-terminating, adjacency
// rebuilt per query) that Topology.Route shipped before the Router cache —
// kept verbatim as the oracle for TestRouterMatchesRoute.
func referenceRoute(t Topology, src, dst int) []Hop {
	if src < 0 || src >= t.Piconets || dst < 0 || dst >= t.Piconets {
		return nil
	}
	if src == dst {
		return []Hop{}
	}
	edge := t.edgeMap()
	prev := make([]Hop, t.Piconets)
	seen := make([]bool, t.Piconets)
	seen[src] = true
	frontier := []int{src}
	for len(frontier) > 0 && !seen[dst] {
		var next []int
		for _, u := range frontier {
			neigh := make([]int, 0, len(edge[u]))
			for v := range edge[u] {
				neigh = append(neigh, v)
			}
			sort.Ints(neigh)
			for _, v := range neigh {
				if seen[v] {
					continue
				}
				seen[v] = true
				prev[v] = Hop{Bridge: edge[u][v], From: u, To: v}
				next = append(next, v)
			}
		}
		frontier = next
	}
	if !seen[dst] {
		return nil
	}
	var path []Hop
	for v := dst; v != src; v = prev[v].From {
		path = append(path, prev[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// TestRouterMatchesRoute pins the Router cache to the legacy per-pair BFS:
// for every ordered pair (including src == dst and out-of-range queries) of
// a representative topology zoo, Router.Route and the early-terminating
// reference derive the same path hop for hop. This is the identity that
// lets the probe plane swap in the shared Router without moving a byte of
// output.
func TestRouterMatchesRoute(t *testing.T) {
	random, err := RandomConnected(9, 13, 21)
	if err != nil {
		t.Fatal(err)
	}
	topos := map[string]Topology{
		"ring":         Ring(7),
		"star":         Star(6),
		"mesh":         Mesh(5),
		"random":       random,
		"legacy":       RingBridges(4, 6),
		"disconnected": {Piconets: 5, Members: [][]int{{0, 1}, {2, 3}}},
		"wide":         {Piconets: 6, Members: [][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 0}}},
	}
	for name, topo := range topos {
		router := NewRouter(topo)
		for src := -1; src <= topo.Piconets; src++ {
			for dst := -1; dst <= topo.Piconets; dst++ {
				want := referenceRoute(topo, src, dst)
				got := router.Route(src, dst)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: Router.Route(%d, %d) = %v, reference BFS says %v", name, src, dst, got, want)
				}
				if convenience := topo.Route(src, dst); !reflect.DeepEqual(convenience, want) {
					t.Errorf("%s: Topology.Route(%d, %d) = %v, reference BFS says %v", name, src, dst, convenience, want)
				}
			}
		}
	}
}

// TestSamplePairsNaN pins the NaN regression: a NaN fraction must degenerate
// to the exhaustive set like every other out-of-domain value — the old
// comparison chain let NaN slip past both branches and silently probe
// nothing — and the config layer must refuse NaN loudly before a campaign
// runs at all.
func TestSamplePairsNaN(t *testing.T) {
	want := exhaustivePairs(5)
	if got := samplePairs(5, math.NaN(), 7); !reflect.DeepEqual(got, want) {
		t.Errorf("samplePairs(5, NaN, 7) = %v, want the exhaustive set", got)
	}
	topo := RingBridges(2, 1)
	cfg := Config{Seed: 1, Duration: 3600e9, Scenario: 3, Topology: &topo,
		ProbePairFraction: math.NaN()}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Config.Validate accepted a NaN probe pair fraction")
	}
	if !strings.Contains(err.Error(), "NaN") {
		t.Errorf("Validate error %q does not name NaN", err)
	}
}
