package scatternet

import (
	"math/rand/v2"
	"testing"

	"repro/internal/sim"
)

// nextResidency reports the earliest instant >= t at which the hold schedule
// has the bridge resident in piconet target (t itself when already there).
// A bridge that does not serve target never becomes resident. It is the
// probe walk's residency step as first written, one division chain per call,
// kept as the oracle the carried-slot walk is held to.
func nextResidency(t, hold sim.Time, serves []int, target int) sim.Time {
	idx := -1
	for i, p := range serves {
		if p == target {
			idx = i
			break
		}
	}
	if idx < 0 || len(serves) < 2 {
		return t
	}
	slot := int64(t) / int64(hold)
	ahead := (int64(idx) - slot%int64(len(serves)) + int64(len(serves))) % int64(len(serves))
	if ahead == 0 {
		return t
	}
	return sim.Time((slot + ahead) * int64(hold))
}

// referenceWalk is the probe walk as first written: wait out the outage,
// then nextResidency to the pickup piconet, carry, and nextResidency to the
// delivery piconet, re-deriving the hold slot at every step.
func referenceWalk(t, hold, service sim.Time, bridges []*bridge, route []Hop) sim.Time {
	for _, h := range route {
		b := bridges[h.Bridge]
		if t < b.downUntil {
			t = b.downUntil
		}
		t = nextResidency(t, hold, b.serves, h.From)
		t += service
		t = nextResidency(t, hold, b.serves, h.To)
	}
	return t
}

// TestNextResidency pins the oracle's residency arithmetic against the
// live schedule function residencyAt.
func TestNextResidency(t *testing.T) {
	hold := 10 * sim.Second
	serves := []int{4, 7, 2}
	for _, start := range []sim.Time{0, 3 * sim.Second, 10 * sim.Second, 95 * sim.Second} {
		for _, target := range serves {
			at := nextResidency(start, hold, serves, target)
			if at < start {
				t.Fatalf("nextResidency(%v → piconet %d) = %v, before start", start, target, at)
			}
			if got := serves[residencyAt(at, hold, len(serves))]; got != target {
				t.Errorf("nextResidency(%v → piconet %d) = %v, but schedule says piconet %d",
					start, target, at, got)
			}
			// Minimality: no earlier instant in [start, at) is resident.
			for probe := start; probe < at; probe += hold / 2 {
				if serves[residencyAt(probe, hold, len(serves))] == target {
					t.Fatalf("nextResidency(%v → piconet %d) = %v, but %v already resident",
						start, target, at, probe)
				}
			}
		}
	}
}

// walkHorizon bounds the generated offer instants and outage ends: a
// two-year campaign, far past any configured duration.
const walkHorizon = 2 * 365 * sim.Day

// checkProbeWalk builds a random scatternet from seed — a RandomConnected
// map (with its occasional three-piconet bridges), sometimes replicated by
// WithRedundancy — with bare bridges whose outages end at random instants,
// some of them just after start. It then walks a sample of Router routes
// plus one arbitrary hop sequence from start and requires the carried-slot
// walk to end on exactly the oracle's instant. hold must be positive,
// service and start non-negative.
func checkProbeWalk(tb testing.TB, seed uint64, hold, service, start sim.Time) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x7e57))
	p := 2 + rng.IntN(23)
	topo, err := RandomConnected(p, p-1+rng.IntN(p), seed)
	if err != nil {
		tb.Fatal(err)
	}
	topo = topo.WithRedundancy(1 + rng.IntN(3))
	pr := &prober{hold: hold, service: service}
	for _, members := range topo.Members {
		b := &bridge{serves: members}
		switch rng.IntN(3) {
		case 0:
			b.downUntil = sim.Time(rng.Int64N(int64(walkHorizon)))
		case 1:
			b.downUntil = start + sim.Time(rng.Int64N(4*int64(hold)+1))
		}
		pr.bridges = append(pr.bridges, b)
	}
	router := NewRouter(topo)
	routes := [][]Hop{nil}
	for i := 0; i < 16; i++ {
		if r := router.Route(rng.IntN(p), rng.IntN(p)); r != nil {
			routes = append(routes, r)
		}
	}
	// The walk never assumes consecutive hops connect, so also feed it an
	// arbitrary sequence, including hops whose pickup is their delivery.
	var arbitrary []Hop
	for i := 0; i < 12; i++ {
		b := rng.IntN(len(pr.bridges))
		serves := pr.bridges[b].serves
		arbitrary = append(arbitrary, Hop{Bridge: b,
			From: serves[rng.IntN(len(serves))], To: serves[rng.IntN(len(serves))]})
	}
	routes = append(routes, arbitrary)
	for _, route := range routes {
		got := pr.walk(start, route)
		want := referenceWalk(start, hold, service, pr.bridges, route)
		if got != want {
			tb.Fatalf("seed %d hold %d service %d start %d route %v: walk ends at %d, oracle at %d",
				seed, hold, service, start, route, got, want)
		}
	}
}

// TestProbeWalkMatchesReference holds the carried-slot probe walk to the
// per-step nextResidency oracle, bit for bit, over random topologies, hold
// times (1 ns, shorter than the SDU airtime, and realistic), outage states
// and offer instants across a two-year horizon, including instants on and
// just before slot boundaries.
func TestProbeWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0x7e57))
	for i := 0; i < 2000; i++ {
		service := relayAirTime(1 + rng.IntN(64<<10))
		var hold sim.Time
		switch rng.IntN(5) {
		case 0:
			hold = 1
		case 1:
			hold = 1 + sim.Time(rng.Int64N(int64(service))) // hold < service
		case 2:
			hold = service
		case 3:
			hold = DefaultHoldTime
		default:
			hold = 1 + sim.Time(rng.Int64N(int64(sim.Minute)))
		}
		start := sim.Time(rng.Int64N(int64(walkHorizon)))
		switch rng.IntN(3) {
		case 0:
			start -= start % hold
		case 1:
			start -= start%hold + 1
			start = max(start, 0)
		}
		checkProbeWalk(t, rng.Uint64(), hold, service, start)
	}
}

// FuzzProbeWalk explores the same space as TestProbeWalkMatchesReference:
// the topology, outage and route draws come from seed; hold, service and
// start are folded into their valid ranges.
func FuzzProbeWalk(f *testing.F) {
	f.Add(uint64(1), int64(DefaultHoldTime), int64(relayAirTime(DefaultRelayBytes)), int64(0))
	f.Add(uint64(2), int64(1), int64(relayAirTime(DefaultRelayBytes)), int64(walkHorizon-1))
	f.Add(uint64(3), int64(sim.Millisecond), int64(relayAirTime(64<<10)), int64(10*sim.Second))
	f.Fuzz(func(t *testing.T, seed uint64, hold, service, start int64) {
		checkProbeWalk(t, seed,
			1+sim.Time(uint64(hold)%uint64(sim.Hour)),
			sim.Time(uint64(service)%uint64(sim.Minute)),
			sim.Time(uint64(start)%uint64(walkHorizon)))
	})
}

// probeOverlay builds an overlay over topo whose bridges are never started,
// so its world runs nothing but the exhaustive probe plane.
func probeOverlay(topo Topology) *overlay {
	cfg := Config{Seed: 5, Rollup: true}.withDefaults()
	o := newOverlay(cfg, topo)
	// Staggered outage ends make early walks wait on a bridge.
	for i, b := range o.bridges {
		b.downUntil = sim.Time(i) * sim.Minute
	}
	o.prober.start()
	return o
}

// TestProbeSteadyStateAllocFree extends the zero-alloc hot path to the
// relay-probe plane: once every flow has probed (and so resolved its depth
// summaries), a probe callback — walk, record, reschedule — allocates
// nothing.
func TestProbeSteadyStateAllocFree(t *testing.T) {
	o := probeOverlay(Ring(8))
	for i := 0; i < 20000; i++ {
		o.world.Step()
	}
	before := o.prober.acc.Probes()
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() { o.world.Step() })
	if allocs != 0 {
		t.Errorf("steady-state probe callback allocates %.1f objects per probe, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call; every step must have been a probe.
	if got := o.prober.acc.Probes() - before; got != runs+1 {
		t.Fatalf("%d steps recorded %d probes, want one each", runs+1, got)
	}
}

// BenchmarkProbeWalk measures one probe callback (walk, record,
// reschedule) on a 64-piconet ring with exhaustive probes, driven by the
// overlay world's kernel.
func BenchmarkProbeWalk(b *testing.B) {
	o := probeOverlay(Ring(64))
	for i := 0; i < 64*63; i++ {
		o.world.Step()
	}
	before := o.prober.acc.Probes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.world.Step()
	}
	b.StopTimer()
	walks := o.prober.acc.Probes() - before
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(walks), "ns/walk")
}
