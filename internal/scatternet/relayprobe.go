package scatternet

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/stats"
)

// relayAirRateBps is the nominal asymmetric DH5 payload rate used to model a
// relayed SDU's transmission time on the probe plane (723.2 kbps — the
// classic Bluetooth 1.x asymmetric maximum). The probe plane measures
// residency and outage waits, which dominate by orders of magnitude; a
// deterministic airtime keeps the probes free of RNG draws that could
// perturb the data plane's streams.
const relayAirRateBps = 723_200

// relayAirTime models the transmission time of one relayed SDU.
func relayAirTime(bytes int) sim.Time {
	return sim.Time(float64(bytes) * 8 / relayAirRateBps * float64(sim.Second))
}

// prober is the multi-hop relay measurement plane: for every sampled ordered
// piconet pair it offers probe SDUs on an exponential arrival process, walks
// the topology's minimum-hop route, and accounts the end-to-end
// store-and-forward delay by relay depth. The walk is analytic — it reads
// the bridges' current outage state and their deterministic residency
// schedules without touching any bridge or piconet state — so enabling
// probes, or sampling them down, cannot perturb the data plane (the golden
// equivalence suite pins this). Pair selection comes from samplePairs: at
// the default fraction 1 every ordered pair probes (the legacy exhaustive
// plane, byte-identical); below 1 only the seeded subset does, and each
// included pair keeps its own named RNG stream, so the surviving pairs'
// arrival processes are bit-identical to their exhaustive-run selves.
type prober struct {
	world   *sim.World
	bridges []*bridge
	hold    sim.Time
	service sim.Time
	every   sim.Time
	acc     *analysis.RelayDepthAccum

	flows []probeFlow // one per sampled ordered pair, in samplePairs order

	// bySrc holds per-source-piconet partials (allocated only in rollup
	// mode); the hierarchical roll-up merges them in ascending source order.
	bySrc []*analysis.RelayDepthAccum
}

// probeFlow is one sampled ordered pair's probe flow.
type probeFlow struct {
	route []Hop // nil when the pair has no bridge path
	src   int   // source piconet (per-source attribution)
	rng   *rand.Rand
	fn    func()

	// sum and srcSum are the route depth's delay summaries in acc and in
	// the source partial (srcSum stays nil outside rollup mode). They are
	// resolved at the flow's first routed probe, not at construction, so a
	// depth no probe reached never gets a table row.
	sum, srcSum *stats.Summary
}

// newProber samples the probe-pair subset and precomputes each pair's route
// (one shared Router, so the route build is O(sources·(P+E)) instead of the
// per-pair adjacency rebuild) and arrival stream.
func newProber(cfg Config, o *overlay, topo Topology) *prober {
	pr := &prober{
		world:   o.world,
		bridges: o.bridges,
		hold:    cfg.HoldTime,
		service: relayAirTime(cfg.RelayBytes),
		every:   cfg.RelayProbeEvery,
		acc:     analysis.NewRelayDepthAccum(),
	}
	if cfg.Rollup {
		pr.bySrc = make([]*analysis.RelayDepthAccum, topo.Piconets)
	}
	router := NewRouter(topo)
	pairs := samplePairs(topo.Piconets, cfg.ProbePairFraction, cfg.Seed)
	pr.flows = make([]probeFlow, len(pairs))
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
func (pr *prober) srcAccum(src int) *analysis.RelayDepthAccum {
	if pr.bySrc == nil {
		return nil
	}
	if pr.bySrc[src] == nil {
		pr.bySrc[src] = analysis.NewRelayDepthAccum()
	}
	return pr.bySrc[src]
}

// start schedules every pair's first probe arrival.
func (pr *prober) start() {
	for i := range pr.flows {
		f := &pr.flows[i]
		pr.world.ScheduleAfter(pr.next(f), f.fn)
	}
}

// next samples flow f's exponential inter-arrival time.
func (pr *prober) next(f *probeFlow) sim.Time {
	return sim.Time(f.rng.ExpFloat64() * float64(pr.every))
}

// probe offers one SDU on flow f, walks its route (see walk) and records
// the end-to-end delay under the route's depth.
func (pr *prober) probe(f *probeFlow) {
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

// walk returns the instant an SDU offered at t >= 0 is delivered over
// route: hop by hop it waits out any outage in progress, rotates the
// bridge's residency to the pickup piconet, carries the SDU, and rotates
// again to deliver — per-hop store-and-forward, exactly the delay anatomy
// of a scatternet relay path.
//
// The residency schedule is residencyAt's: in hold slot t/hold a bridge is
// resident in serves[slot mod n]. Rather than re-deriving the slot at every
// step, the walk divides once and carries slot == t/hold along the route. A
// rotation lands on a slot start, so it moves slot by an add; the walk
// divides again only where t jumps by an amount the carry does not know:
// to the end of an outage, or past the slot's end with a carry.
func (pr *prober) walk(t sim.Time, route []Hop) sim.Time {
	hold := int64(pr.hold)
	slot := int64(t) / hold
	for _, h := range route {
		b := pr.bridges[h.Bridge]
		// Wait out the bridge's current outage (future failures are unknown
		// at offer time; this is the delay the sender observes).
		if t < b.downUntil {
			t = b.downUntil
			slot = int64(t) / hold
		}
		// Pickup: the bridge must rotate its residency to the hop's source.
		t, slot = rotate(t, slot, hold, b.serves, h.From)
		// Carry: one SDU transmission into the bridge's queue discipline.
		t += pr.service
		if int64(t) >= (slot+1)*hold {
			slot = int64(t) / hold
		}
		// Delivery: rotate to the hop's destination piconet.
		t, slot = rotate(t, slot, hold, b.serves, h.To)
	}
	return t
}

// rotate advances (t, slot), with slot == t/hold, to the earliest instant
// >= t at which a bridge serving serves is resident in piconet target. The
// two-piconet bridges that Ring, Star and Mesh build take the slot's phase
// as slot&1; any other width takes slot mod n (a one-piconet bridge never
// rotates). A bridge that does not serve target never becomes resident;
// the routing layer guarantees that cannot be asked.
func rotate(t sim.Time, slot, hold int64, serves []int, target int) (sim.Time, int64) {
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
