package scatternet

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stats"
)

// nextResidency reports the earliest instant >= t at which the hold schedule
// has the bridge resident in piconet target (t itself when already there).
// A bridge that does not serve target never becomes resident. It is the
// probe walk's residency step as first written, one division chain per call,
// kept as the oracle the carried-slot walks are held to.
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
func referenceWalk(t, hold, service sim.Time, outages []outage, members [][]int, route []Hop) sim.Time {
	for _, h := range route {
		if t < outages[h.Bridge].until {
			t = outages[h.Bridge].until
		}
		t = nextResidency(t, hold, members[h.Bridge], h.From)
		t += service
		t = nextResidency(t, hold, members[h.Bridge], h.To)
	}
	return t
}

// eventProber is the probe plane as it ran before the calendar: one kernel
// heap event per probe, each flow rescheduling itself through a closure,
// walking a stored []Hop route with a per-hop search of the bridge's
// membership. It is the oracle the calendar plane is held to, event for
// event.
type eventProber struct {
	world   *sim.World
	outages []outage
	members [][]int
	hold    sim.Time
	service sim.Time
	every   sim.Time
	acc     *analysis.RelayDepthAccum
	flows   []eventFlow
	bySrc   []*analysis.RelayDepthAccum
}

// eventFlow is one sampled ordered pair's flow on the event plane.
type eventFlow struct {
	route       []Hop
	src         int
	rng         *rand.Rand
	fn          func()
	sum, srcSum *stats.Summary
}

// newEventProber builds the event plane over overlay o. It shares o's
// named probe streams, so only one of o's two planes may run.
func newEventProber(cfg Config, o *overlay, topo Topology) *eventProber {
	pr := &eventProber{
		world:   o.world,
		outages: o.outages,
		members: topo.Members,
		hold:    cfg.HoldTime,
		service: relayAirTime(cfg.RelayBytes),
		every:   relayProbeEvery,
		acc:     analysis.NewRelayDepthAccum(),
	}
	if cfg.Rollup {
		pr.bySrc = make([]*analysis.RelayDepthAccum, topo.Piconets)
	}
	router := NewRouter(topo)
	pairs := samplePairs(topo.Piconets, cfg.ProbePairFraction, cfg.Seed)
	pr.flows = make([]eventFlow, len(pairs))
	for i, pair := range pairs {
		f := &pr.flows[i]
		f.route = router.Route(pair.src, pair.dst)
		f.src = pair.src
		f.rng = o.world.RNG(fmt.Sprintf("probe.%d.%d", pair.src, pair.dst))
		f.fn = func() { pr.probe(f) }
	}
	return pr
}

// srcAccum returns source piconet src's partial (nil outside rollup mode).
func (pr *eventProber) srcAccum(src int) *analysis.RelayDepthAccum {
	if pr.bySrc == nil {
		return nil
	}
	if pr.bySrc[src] == nil {
		pr.bySrc[src] = analysis.NewRelayDepthAccum()
	}
	return pr.bySrc[src]
}

// start schedules every pair's first probe arrival.
func (pr *eventProber) start() {
	for i := range pr.flows {
		f := &pr.flows[i]
		pr.world.ScheduleAfter(pr.next(f), f.fn)
	}
}

// next samples flow f's exponential inter-arrival time.
func (pr *eventProber) next(f *eventFlow) sim.Time {
	return sim.Time(f.rng.ExpFloat64() * float64(pr.every))
}

// probe reschedules flow f, walks its route and records the delay.
func (pr *eventProber) probe(f *eventFlow) {
	now := pr.world.Now()
	pr.world.ScheduleAfter(pr.next(f), f.fn)
	if f.route == nil {
		pr.acc.AddUnreachable()
		if a := pr.srcAccum(f.src); a != nil {
			a.AddUnreachable()
		}
		return
	}
	if f.sum == nil {
		f.sum = pr.acc.Depth(len(f.route))
		if a := pr.srcAccum(f.src); a != nil {
			f.srcSum = a.Depth(len(f.route))
		}
	}
	delay := (pr.walk(now, f.route) - now).Seconds()
	f.sum.Add(delay)
	if f.srcSum != nil {
		f.srcSum.Add(delay)
	}
}

// walk is the carried-slot walk over a []Hop route, stepping every hop.
func (pr *eventProber) walk(t sim.Time, route []Hop) sim.Time {
	hold := int64(pr.hold)
	slot := int64(t) / hold
	for _, h := range route {
		if until := pr.outages[h.Bridge].until; t < until {
			t = until
			slot = int64(t) / hold
		}
		serves := pr.members[h.Bridge]
		t, slot = rotateServes(t, slot, hold, serves, h.From)
		t += pr.service
		if int64(t) >= (slot+1)*hold {
			slot = int64(t) / hold
		}
		t, slot = rotateServes(t, slot, hold, serves, h.To)
	}
	return t
}

// rotateServes is rotate with the residency index searched in serves.
func rotateServes(t sim.Time, slot, hold int64, serves []int, target int) (sim.Time, int64) {
	n := len(serves)
	idx := 0
	for idx < n && serves[idx] != target {
		idx++
	}
	if idx == n {
		return t, slot
	}
	var phase int
	if n == 2 {
		phase = int(slot & 1)
	} else {
		phase = int(slot % int64(n))
	}
	ahead := idx - phase
	if ahead == 0 {
		return t, slot
	}
	if ahead < 0 {
		ahead += n
	}
	slot += int64(ahead)
	return sim.Time(slot * hold), slot
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

// flatRoute lays route out as the prober's hop table does.
func flatRoute(route []Hop, members [][]int, closed bool) []flatHop {
	flat := make([]flatHop, len(route))
	for i, h := range route {
		flat[i] = newFlatHop(h, members[h.Bridge])
	}
	setTails(flat, closed)
	return flat
}

// checkProbeWalk builds a random scatternet from seed — a RandomConnected
// map (with its occasional three-piconet bridges), sometimes replicated by
// WithRedundancy — whose bridges' outages end at random instants, some of
// them just after start and some on slot boundaries. It then walks a sample
// of Router routes plus one arbitrary hop sequence (hops whose pickup is
// their delivery included) from start and requires the flat walk, with its
// closed-form tails, and the event plane's walk to end on exactly the
// oracle's instant. hold must be positive, service and start non-negative.
func checkProbeWalk(tb testing.TB, seed uint64, hold, service, start sim.Time) {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 0x7e57))
	p := 2 + rng.IntN(23)
	topo, err := RandomConnected(p, p-1+rng.IntN(p), seed)
	if err != nil {
		tb.Fatal(err)
	}
	topo = topo.WithRedundancy(1 + rng.IntN(3))
	outages := make([]outage, topo.Bridges())
	for i := range outages {
		o := &outages[i]
		switch rng.IntN(4) {
		case 0:
			o.until = sim.Time(rng.Int64N(int64(walkHorizon)))
		case 1:
			o.until = start + sim.Time(rng.Int64N(4*int64(hold)+1))
		case 2:
			o.until = (start/hold + sim.Time(rng.Int64N(8))) * hold
		}
		o.slot = int64(o.until) / int64(hold)
	}
	router := NewRouter(topo)
	routes := [][]Hop{nil}
	for i := 0; i < 16; i++ {
		if r := router.Route(rng.IntN(p), rng.IntN(p)); r != nil {
			routes = append(routes, r)
		}
	}
	// The walks never assume consecutive hops connect, so also feed them
	// an arbitrary sequence, including hops whose pickup is their delivery.
	var arbitrary []Hop
	for i := 0; i < 12; i++ {
		b := rng.IntN(topo.Bridges())
		serves := topo.Members[b]
		arbitrary = append(arbitrary, Hop{Bridge: b,
			From: serves[rng.IntN(len(serves))], To: serves[rng.IntN(len(serves))]})
	}
	routes = append(routes, arbitrary)
	pr := &prober{outages: outages, hold: hold, service: service, sufMax: make([]sim.Time, p+12)}
	ev := &eventProber{outages: outages, members: topo.Members, hold: hold, service: service}
	for _, route := range routes {
		want := referenceWalk(start, hold, service, outages, topo.Members, route)
		if got := pr.walk(start, flatRoute(route, topo.Members, hold > service)); got != want {
			tb.Fatalf("seed %d hold %d service %d start %d route %v: flat walk ends at %d, oracle at %d",
				seed, hold, service, start, route, got, want)
		}
		if got := ev.walk(start, route); got != want {
			tb.Fatalf("seed %d hold %d service %d start %d route %v: event walk ends at %d, oracle at %d",
				seed, hold, service, start, route, got, want)
		}
	}
}

// TestProbeWalkMatchesReference holds the flat probe walk and the event
// plane's walk to the per-step nextResidency oracle, bit for bit, over
// random topologies, hold times (1 ns, shorter than the SDU airtime, equal
// to it, and realistic), outage states and offer instants across a two-year
// horizon, including instants on and just before slot boundaries.
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

// TestProbeWalkTakesClosedForm checks that the flat walk's early exit
// engages: on a clean ring route every hop after the first resolves in
// closed form, so a walk there must return before it reads a later hop.
func TestProbeWalkTakesClosedForm(t *testing.T) {
	topo := Ring(16)
	route := flatRoute(NewRouter(topo).Route(0, 8), topo.Members, true)
	if len(route) != 8 {
		t.Fatalf("ring route has %d hops, want 8", len(route))
	}
	for i, h := range route {
		if h.tail < 0 {
			t.Fatalf("hop %d of a clean ring route has no closed-form tail", i)
		}
	}
	pr := &prober{outages: make([]outage, topo.Bridges()), hold: DefaultHoldTime,
		service: relayAirTime(DefaultRelayBytes), sufMax: make([]sim.Time, len(route))}
	want := pr.walk(3*sim.Second, route)
	// Poison the later hops: a walk that steps them would panic.
	for i := 2; i < len(route); i++ {
		route[i].width = 0
	}
	if got := pr.walk(3*sim.Second, route); got != want {
		t.Fatalf("walk ends at %d with the tail poisoned, %d without", got, want)
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

// TestProbeCalendarOrder holds the calendar queue to a linear search for
// the least (at, seq): flows pop and re-arm at random delays — zero ones
// (same-instant ties broken by seq), ones inside a bucket, and ones many
// laps ahead, which force the scan's fallback — and every pop must return
// the least pending arrival.
func TestProbeCalendarOrder(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		rng := rand.New(rand.NewPCG(uint64(n), 0xca1))
		var c probeCalendar
		c.init(n, sim.Minute)
		seq := uint64(0)
		draw := func(now sim.Time) sim.Time {
			switch rng.IntN(4) {
			case 0:
				return now
			case 1:
				return now + sim.Time(rng.Int64N(int64(sim.Millisecond)))
			case 2:
				return now + sim.Time(rng.Int64N(int64(2*sim.Minute)))
			default:
				return now + sim.Time(rng.Int64N(int64(sim.Hour)))
			}
		}
		for i := 0; i < n; i++ {
			seq++
			c.push(int32(i), draw(0), seq)
		}
		for step := 0; step < 20000; step++ {
			want := int32(0)
			for i := int32(1); i < int32(n); i++ {
				if c.ev[i].at < c.ev[want].at || c.ev[i].at == c.ev[want].at && c.ev[i].seq < c.ev[want].seq {
					want = i
				}
			}
			got := c.pop()
			if got != want {
				t.Fatalf("n %d step %d: popped flow %d (%d, %d), least is flow %d (%d, %d)",
					n, step, got, c.ev[got].at, c.ev[got].seq, want, c.ev[want].at, c.ev[want].seq)
			}
			seq++
			c.push(got, draw(c.ev[got].at), seq)
		}
	}
}

// planeConfig is one overlay configuration both probe planes run.
func planeConfig(seed uint64, topo Topology, fraction float64, hold sim.Time) Config {
	return Config{
		Seed:              seed,
		Duration:          sim.Hour,
		Scenario:          recovery.ScenarioSIRAs,
		Topology:          &topo,
		HoldTime:          hold,
		ProbePairFraction: fraction,
		Rollup:            true,
	}.withDefaults()
}

// eventOverlay builds cfg's overlay and the event plane over it, unstarted.
func eventOverlay(cfg Config) (*overlay, *eventProber) {
	o := newOverlay(cfg, *cfg.Topology)
	return o, newEventProber(cfg, o, *cfg.Topology)
}

// runEventPlane runs cfg's overlay with the event plane in place of the
// calendar: Run's order, bridges first.
func runEventPlane(cfg Config) (*overlay, *eventProber) {
	o, ev := eventOverlay(cfg)
	for _, b := range o.bridges {
		b.start()
	}
	ev.start()
	o.world.RunUntil(cfg.Duration)
	return o, ev
}

// checkPlanesMatch requires the calendar plane (calendar's overlay) and the
// event plane to have produced bit-identical probe tables — the global
// accumulator and every per-source partial — and bridge and redundancy
// tables, after the same number of kernel events.
func checkPlanesMatch(tb testing.TB, label string, calendar *overlay, evo *overlay, ev *eventProber, horizon sim.Time) {
	tb.Helper()
	if got, want := calendar.world.Executed(), evo.world.Executed(); got != want {
		tb.Fatalf("%s: calendar plane executed %d events, event plane %d", label, got, want)
	}
	if got, want := calendar.prober.acc.Snapshot(), ev.acc.Snapshot(); !reflect.DeepEqual(got, want) {
		tb.Fatalf("%s: relay-depth tables differ:\ncalendar %+v\nevent    %+v", label, got, want)
	}
	if len(calendar.prober.bySrc) != len(ev.bySrc) {
		tb.Fatalf("%s: %d source partials, want %d", label, len(calendar.prober.bySrc), len(ev.bySrc))
	}
	for src, a := range calendar.prober.bySrc {
		if (a == nil) != (ev.bySrc[src] == nil) {
			tb.Fatalf("%s: source %d partial present on one plane only", label, src)
		}
		if a != nil && !reflect.DeepEqual(a.Snapshot(), ev.bySrc[src].Snapshot()) {
			tb.Fatalf("%s: source %d partials differ", label, src)
		}
	}
	evRows := evo.Table().Rows
	for i, row := range calendar.Table().Rows {
		if !reflect.DeepEqual(row.Snapshot(), evRows[i].Snapshot()) {
			tb.Fatalf("%s: bridge %d rows differ", label, i)
		}
	}
	if got, want := calendar.RedundancyTable(horizon), evo.RedundancyTable(horizon); !reflect.DeepEqual(got, want) {
		tb.Fatalf("%s: redundancy tables differ", label)
	}
}

// checkProbePlane runs cfg's overlay once with the calendar plane and once
// with the event plane, requires identical results, and returns the
// calendar plane's overlay.
func checkProbePlane(tb testing.TB, label string, cfg Config) *overlay {
	tb.Helper()
	calendar := newOverlay(cfg, *cfg.Topology)
	calendar.Run(cfg.Duration)
	evo, ev := runEventPlane(cfg)
	checkPlanesMatch(tb, label, calendar, evo, ev, cfg.Duration)
	return calendar
}

// TestProbePlaneMatchesEventPlane holds the calendar probe plane to the
// event-per-probe plane it replaced: the same overlay hour, bridges live,
// on Ring(64), Star, Mesh and redundant RandomConnected maps (three-piconet
// bridges included), exhaustive and sampled, with the default hold and one
// below the SDU airtime (over a shorter horizon), must produce bit-identical relay-depth tables,
// per-source partials, bridge and redundancy tables and event counts.
func TestProbePlaneMatchesEventPlane(t *testing.T) {
	random, err := RandomConnected(12, 18, 4)
	if err != nil {
		t.Fatal(err)
	}
	topos := []struct {
		name string
		topo Topology
	}{
		{"ring64", Ring(64)},
		{"star", Star(9)},
		{"mesh", Mesh(6)},
		{"random", random.WithRedundancy(2)},
	}
	airtime := relayAirTime(DefaultRelayBytes)
	for _, tc := range topos {
		for _, fraction := range []float64{1, 0.25} {
			for _, hold := range []sim.Time{DefaultHoldTime, airtime / 2} {
				cfg := planeConfig(7, tc.topo, fraction, hold)
				if hold < DefaultHoldTime {
					// A bridge hops every hold: keep the event count down.
					cfg.Duration = 2 * sim.Minute
				}
				if testing.Short() {
					cfg.Duration /= 4
				}
				label := fmt.Sprintf("%s fraction %v hold %v", tc.name, fraction, hold)
				if acc := checkProbePlane(t, label, cfg).prober.acc; acc.Probes() == 0 {
					t.Fatalf("%s: no probe ran", label)
				}
			}
		}
	}
}

// TestProbeTiesBridgeFailure pins the tie rule between a probe and a bridge
// event on the same nanosecond: whichever took its seq first runs first, on
// both planes. A flow's first probe is armed at the instant a heap event
// fails the route's only bridge, once before and once after that event is
// scheduled; the probe must see the outage exactly when the failure came
// first, and the two planes must agree either way.
func TestProbeTiesBridgeFailure(t *testing.T) {
	topo := Ring(4)
	cfg := planeConfig(3, topo, 1, DefaultHoldTime)
	at := 10*sim.Second - 5*sim.Millisecond + 123
	route := []Hop{{Bridge: 0, From: 0, To: 1}} // flow 0 is the pair 0 → 1
	for _, failFirst := range []bool{true, false} {
		label := fmt.Sprintf("fail first %v", failFirst)
		fail := func(o *overlay) {
			o.world.Schedule(at, func() { o.bridges[0].fail(core.UFPacketLoss) })
		}
		// Calendar plane: arm flow 0 by hand.
		calendar := newOverlay(cfg, topo)
		if failFirst {
			fail(calendar)
		}
		calendar.prober.cal.push(0, at, calendar.world.ReserveSeq())
		if !failFirst {
			fail(calendar)
		}
		calendar.world.Attach(calendar.prober)
		calendar.world.RunUntil(at)
		// Event plane: the same schedule through the heap.
		evo, ev := eventOverlay(cfg)
		if failFirst {
			fail(evo)
		}
		evo.world.Schedule(at, ev.flows[0].fn)
		if !failFirst {
			fail(evo)
		}
		evo.world.RunUntil(at)
		checkPlanesMatch(t, label, calendar, evo, ev, at)

		seen := make([]outage, topo.Bridges())
		if failFirst {
			copy(seen, calendar.outages)
		}
		if calendar.outages[0].until <= at {
			t.Fatalf("%s: the failure opened no outage", label)
		}
		want := referenceWalk(at, cfg.HoldTime, relayAirTime(cfg.RelayBytes), seen, topo.Members, route)
		clean := referenceWalk(at, cfg.HoldTime, relayAirTime(cfg.RelayBytes), make([]outage, topo.Bridges()), topo.Members, route)
		if want == clean && failFirst {
			t.Fatalf("%s: the outage does not delay the probe; pick another instant", label)
		}
		sum := calendar.prober.acc.ByDepth[1]
		if sum == nil || sum.N() != 1 {
			t.Fatalf("%s: want exactly one depth-1 probe, got %+v", label, calendar.prober.acc.Snapshot())
		}
		if got := sum.Mean(); got != (want - at).Seconds() {
			t.Errorf("%s: probe took %vs, want %vs", label, got, (want - at).Seconds())
		}
	}
}

// FuzzProbePlane runs both probe planes on a fuzzed overlay: a random
// topology, probe fraction, hold time and seed, over a short horizon.
func FuzzProbePlane(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(100), int64(DefaultHoldTime))
	f.Add(uint64(2), uint8(5), uint8(3), uint8(25), int64(relayAirTime(DefaultRelayBytes)/2))
	f.Add(uint64(3), uint8(12), uint8(2), uint8(60), int64(sim.Second))
	f.Fuzz(func(t *testing.T, seed uint64, size, shape, percent uint8, hold int64) {
		p := 2 + int(size)%14
		var topo Topology
		switch shape % 4 {
		case 0:
			topo = Ring(p)
		case 1:
			topo = Star(p)
		case 2:
			topo = Mesh(min(p, 7))
		default:
			r, err := RandomConnected(p, p-1+int(seed%uint64(p)), seed)
			if err != nil {
				t.Fatal(err)
			}
			topo = r.WithRedundancy(1 + int(seed>>8)%2)
		}
		cfg := planeConfig(seed, topo, float64(1+int(percent)%100)/100,
			1+sim.Time(uint64(hold)%uint64(sim.Minute)))
		cfg.Duration = 10 * sim.Minute
		checkProbePlane(t, fmt.Sprintf("seed %d", seed), cfg)
	})
}

// probeOverlay builds an overlay over topo whose bridges are never started,
// so its world runs nothing but the exhaustive probe plane.
func probeOverlay(topo Topology) *overlay {
	cfg := Config{Seed: 5, Rollup: true}.withDefaults()
	o := newOverlay(cfg, topo)
	// Staggered outage ends make early walks wait on a bridge.
	for i := range o.outages {
		o.outages[i].until = sim.Time(i) * sim.Minute
		o.outages[i].slot = int64(o.outages[i].until) / int64(cfg.HoldTime)
	}
	o.prober.start()
	return o
}

// TestProbeSteadyStateAllocFree extends the zero-alloc hot path to the
// relay-probe plane: once every flow has probed (and so resolved its depth
// summaries), a probe — calendar pop and push, walk, record — allocates
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
		t.Errorf("steady-state probe allocates %.1f objects per probe, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call; every step must have been a probe.
	if got := o.prober.acc.Probes() - before; got != runs+1 {
		t.Fatalf("%d steps recorded %d probes, want one each", runs+1, got)
	}
}

// BenchmarkProbeWalk measures one probe (calendar pop and push, walk,
// record) on a 64-piconet ring with exhaustive probes, driven by the
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

// BenchmarkOverlayDay runs the 64-piconet ring's bridge overlay alone for
// one virtual day with exhaustive probes — the sequential world on the
// metro scatternet's critical path — and reports seconds per overlay day
// and wall nanoseconds per probe.
func BenchmarkOverlayDay(b *testing.B) {
	topo := Ring(64)
	cfg := Config{Seed: 1, Duration: sim.Day, Scenario: recovery.ScenarioSIRAs,
		Topology: &topo, Rollup: true}.withDefaults()
	probes := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := newOverlay(cfg, topo)
		o.Run(cfg.Duration)
		probes += o.prober.acc.Probes()
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/day")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "ns/probe")
}
