package scatternet

import (
	"fmt"
	"math/bits"
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
// the overlay's outage table and the bridges' deterministic residency
// schedules without touching any bridge or piconet state — so enabling
// probes, or sampling them down, cannot perturb the data plane (the golden
// equivalence suite pins this). Pair selection comes from samplePairs: at
// the default fraction 1 every ordered pair probes (the legacy exhaustive
// plane, byte-identical); below 1 only the seeded subset does, and each
// included pair keeps its own named RNG stream, so the surviving pairs'
// arrival processes are bit-identical to their exhaustive-run selves.
//
// The probe arrivals stay off the kernel's heap: every flow has exactly one
// pending arrival, kept in a calendar queue (probeCalendar), and the prober
// is the overlay kernel's attached sim.EventSource. Each arrival's seq is
// reserved from the kernel at the instant a heap schedule would have taken
// it, so every probe keeps its place in the all-heap event order, ties
// with bridge events included. Routes live in one flat hop table (flatHop),
// built straight from the Router's BFS trees.
type prober struct {
	world   *sim.World
	outages []outage // the overlay's outage table, indexed by bridge
	hold    sim.Time
	service sim.Time
	every   sim.Time
	acc     *analysis.RelayDepthAccum

	flows []probeFlow // one per sampled ordered pair, in samplePairs order
	hops  []flatHop   // every routed flow's hops, one contiguous slice each
	cal   probeCalendar

	// sufMax is the walk's scratch: sufMax[i] is the latest outage end
	// over hops i.. of the route being walked (filled for its clean tail
	// only).
	sufMax []sim.Time

	// bySrc holds per-source-piconet partials (allocated only in rollup
	// mode); the hierarchical roll-up merges them in ascending source order.
	bySrc []*analysis.RelayDepthAccum
}

// probeFlow is one sampled ordered pair's probe flow.
type probeFlow struct {
	off, n int32 // its route is hops[off : off+n]; n == 0 when unreachable
	src    int32 // source piconet (per-source attribution)
	rng    *rand.Rand

	// sum and srcSum are the route depth's delay summaries in acc and in
	// the source partial (srcSum stays nil outside rollup mode). They are
	// resolved at the flow's first routed probe, not at construction, so a
	// depth no probe reached never gets a table row.
	sum, srcSum *stats.Summary
}

// flatHop is one hop of a route in the prober's flat hop table: bridge
// picks the SDU up while resident at serves index from and delivers it at
// serves index to. tail is the hold slots the hops after this one take on
// a clean run — no outage left to wait out, starting on a slot start —
// or -1 when this hop or a later one cannot take the closed form (a bridge
// serving more than two piconets, a hop whose pickup is its delivery, or a
// HoldTime at or below the airtime).
type flatHop struct {
	bridge   int32
	from, to int32
	width    int32 // len(serves) of the bridge
	tail     int32
}

// newFlatHop resolves h against its bridge's membership; tail is left for
// setTails.
func newFlatHop(h Hop, serves []int) flatHop {
	idx := func(p int) int32 {
		for i, q := range serves {
			if q == p {
				return int32(i)
			}
		}
		panic(fmt.Sprintf("scatternet: bridge %d does not serve piconet %d", h.Bridge, p))
	}
	return flatHop{bridge: int32(h.Bridge), from: idx(h.From), to: idx(h.To), width: int32(len(serves))}
}

// setTails fills route's clean-tail slot counts. On a clean run a regular
// hop (a two-piconet bridge, pickup != delivery, hold > airtime) started on
// slot start s ends on the slot start after its delivery residency: one
// slot when s's parity is the pickup residency, two otherwise. After it the
// slot's parity is its delivery residency, so every hop but a clean tail's
// first costs a fixed 1 or 2 slots.
func setTails(route []flatHop, closed bool) {
	slots, clean := int32(0), closed
	for i := len(route) - 1; i >= 0; i-- {
		h := &route[i]
		if clean = clean && h.width == 2 && h.from != h.to; !clean {
			h.tail = -1
			continue
		}
		h.tail = slots
		if i > 0 {
			slots += 1 + b2i(route[i-1].to != h.from)
		}
	}
}

// b2i converts a bool to 0 or 1.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// newProber samples the probe-pair subset, seeds each pair's arrival
// stream, and lays every pair's route into one presized hop table: one BFS
// per source piconet counts the routes' hops, and a second fills them.
func newProber(cfg Config, o *overlay, topo Topology) *prober {
	pr := &prober{
		world:   o.world,
		outages: o.outages,
		hold:    cfg.HoldTime,
		service: relayAirTime(cfg.RelayBytes),
		every:   relayProbeEvery,
		acc:     analysis.NewRelayDepthAccum(),
	}
	if cfg.Rollup {
		pr.bySrc = make([]*analysis.RelayDepthAccum, topo.Piconets)
	}
	pairs := samplePairs(topo.Piconets, cfg.ProbePairFraction, cfg.Seed)
	pr.flows = make([]probeFlow, len(pairs))
	for i, pair := range pairs {
		f := &pr.flows[i]
		f.src = int32(pair.src)
		f.rng = o.world.RNG(fmt.Sprintf("probe.%d.%d", pair.src, pair.dst))
	}
	router := NewRouter(topo)
	tree := router.newTree()
	// forSources runs fn on every pair with src's tree in place; pairs
	// come in ascending source order.
	forSources := func(fn func(i int, dst int)) {
		for i := 0; i < len(pairs); {
			src := pairs[i].src
			router.search(src, tree)
			for ; i < len(pairs) && pairs[i].src == src; i++ {
				fn(i, pairs[i].dst)
			}
		}
	}
	total, longest := 0, 0
	forSources(func(i, dst int) {
		if tree.seen[dst] {
			n := int(tree.depth[dst])
			pr.flows[i].off, pr.flows[i].n = int32(total), int32(n)
			total += n
			longest = max(longest, n)
		}
	})
	pr.hops = make([]flatHop, total)
	pr.sufMax = make([]sim.Time, longest)
	closed := pr.hold > pr.service
	forSources(func(i, dst int) {
		f := &pr.flows[i]
		route := pr.hops[f.off : f.off+f.n]
		for v, j := dst, len(route)-1; j >= 0; v, j = tree.prev[v].From, j-1 {
			h := tree.prev[v]
			route[j] = newFlatHop(h, topo.Members[h.Bridge])
		}
		setTails(route, closed)
	})
	pr.cal.init(len(pr.flows), pr.every)
	return pr
}

// srcAccum returns source piconet src's partial (nil outside rollup mode).
func (pr *prober) srcAccum(src int32) *analysis.RelayDepthAccum {
	if pr.bySrc == nil {
		return nil
	}
	if pr.bySrc[src] == nil {
		pr.bySrc[src] = analysis.NewRelayDepthAccum()
	}
	return pr.bySrc[src]
}

// start draws every pair's first probe arrival, in pair order, and attaches
// the prober to the overlay kernel.
func (pr *prober) start() {
	if len(pr.flows) == 0 {
		return
	}
	for i := range pr.flows {
		pr.arm(int32(i))
	}
	pr.world.Attach(pr)
}

// arm draws flow i's next arrival and queues it under the seq the kernel
// hands out now — where ScheduleAfter would have taken it.
func (pr *prober) arm(i int32) {
	at := pr.world.Now() + pr.next(&pr.flows[i])
	pr.cal.push(i, at, pr.world.ReserveSeq())
}

// next samples flow f's exponential inter-arrival time.
func (pr *prober) next(f *probeFlow) sim.Time {
	return sim.Time(f.rng.ExpFloat64() * float64(pr.every))
}

// Next reports the earliest pending probe arrival (sim.EventSource).
func (pr *prober) Next() (sim.Time, uint64, bool) {
	if h := pr.cal.head; h >= 0 {
		return pr.cal.ev[h].at, pr.cal.ev[h].seq, true
	}
	return 0, 0, false
}

// Fire delivers the earliest pending probe arrival (sim.EventSource): it
// re-arms the flow, then probes.
func (pr *prober) Fire() {
	i := pr.cal.pop()
	pr.arm(i)
	pr.probe(&pr.flows[i])
}

// probe offers one SDU on flow f, walks its route (see walk) and records
// the end-to-end delay under the route's depth.
func (pr *prober) probe(f *probeFlow) {
	if f.n == 0 {
		pr.acc.AddUnreachable()
		if a := pr.srcAccum(f.src); a != nil {
			a.AddUnreachable()
		}
		return
	}
	if f.sum == nil {
		f.sum = pr.acc.Depth(int(f.n))
		if a := pr.srcAccum(f.src); a != nil {
			f.srcSum = a.Depth(int(f.n))
		}
	}
	now := pr.world.Now()
	delay := (pr.walk(now, pr.hops[f.off:f.off+f.n]) - now).Seconds()
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
// rotation lands on a slot start, so it moves slot by an add; a wait jumps
// to an outage end whose slot the outage table holds; only a carry past the
// slot's end divides again.
//
// Outage ends are frozen at offer time (future failures are unknown to the
// sender), so once t has passed every outage end left on the route and sits
// on a slot start, the rest of a clean tail is a fixed slot count: the walk
// stops stepping there and adds it (see setTails).
func (pr *prober) walk(t sim.Time, route []flatHop) sim.Time {
	sufMax := pr.sufMax[:len(route)]
	end := sim.Time(0)
	for i := len(route) - 1; i >= 0 && route[i].tail >= 0; i-- {
		end = max(end, pr.outages[route[i].bridge].until)
		sufMax[i] = end
	}
	hold := int64(pr.hold)
	slot := int64(t) / hold
	for i := range route {
		h := &route[i]
		if h.tail >= 0 && t >= sufMax[i] && int64(t) == slot*hold {
			slot += 1 + int64(b2i(slot&1 != int64(h.from))) + int64(h.tail)
			return sim.Time(slot * hold)
		}
		// Wait out the bridge's current outage.
		if o := &pr.outages[h.bridge]; t < o.until {
			t, slot = o.until, o.slot
		}
		// Pickup: the bridge must rotate its residency to the hop's source.
		t, slot = rotate(t, slot, hold, h.width, h.from)
		// Carry: one SDU transmission into the bridge's queue discipline.
		t += pr.service
		if int64(t) >= (slot+1)*hold {
			slot = int64(t) / hold
		}
		// Delivery: rotate to the hop's destination piconet.
		t, slot = rotate(t, slot, hold, h.width, h.to)
	}
	return t
}

// rotate advances (t, slot), with slot == t/hold, to the earliest instant
// >= t at which a bridge serving width piconets is resident at serves index
// idx. The two-piconet bridges that Ring, Star and Mesh build take the
// slot's phase as slot&1; any other width takes slot mod width.
func rotate(t sim.Time, slot, hold int64, width, idx int32) (sim.Time, int64) {
	var phase int64
	if width == 2 {
		phase = slot & 1
	} else {
		phase = slot % int64(width)
	}
	ahead := int64(idx) - phase
	if ahead == 0 {
		return t, slot
	}
	if ahead < 0 {
		ahead += int64(width)
	}
	slot += ahead
	return sim.Time(slot * hold), slot
}

// probeCalendar is the probe plane's pending-arrival queue: a calendar
// queue (Brown, CACM 31(10), 1988) over the flows, each of which has
// exactly one pending arrival. Bucket b holds the flows whose arrival lies
// in a bucket-wide window congruent to b, as a list threaded through
// calEvent.next and kept in (at, seq) order; the head — the earliest arrival — is cached,
// so a probe costs O(1) expected: one pop, one push, and a short scan.
type probeCalendar struct {
	ev []calEvent // flow i's pending arrival

	bucket []int32 // first flow per bucket, -1 when empty
	shift  uint    // a bucket is 1<<shift ns wide
	mask   int64   // len(bucket)-1 (a power of two minus one)
	cur    int64   // the head's absolute bucket, at >> shift
	head   int32   // flow with the smallest (at, seq), -1 when empty
}

// calEvent is one flow's pending arrival: its instant, its kernel seq, and
// the next flow in the same bucket (-1 at the end).
type calEvent struct {
	at   sim.Time
	seq  uint64
	next int32
}

// init sizes the calendar for n flows with mean inter-arrival every: about
// one bucket per flow, each about every/n wide (rounded up to a power of
// two, so a bucket index is a shift), so a bucket holds about one arrival
// per lap.
func (c *probeCalendar) init(n int, every sim.Time) {
	c.ev = make([]calEvent, n)
	buckets := 1
	if n > 1 {
		buckets = 1 << bits.Len(uint(n-1))
	}
	c.bucket = make([]int32, buckets)
	for i := range c.bucket {
		c.bucket[i] = -1
	}
	c.mask = int64(buckets - 1)
	if w := int64(every) / int64(max(n, 1)); w > 1 {
		c.shift = uint(bits.Len64(uint64(w - 1)))
	}
	c.head = -1
}

// before reports whether flow i's arrival orders before flow j's.
func (c *probeCalendar) before(i, j int32) bool {
	a, b := &c.ev[i], &c.ev[j]
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push queues flow i, which must have no pending arrival, at (at, seq).
// at must not precede the head popped last.
func (c *probeCalendar) push(i int32, at sim.Time, seq uint64) {
	c.ev[i].at, c.ev[i].seq = at, seq
	link := &c.bucket[int64(at)>>c.shift&c.mask]
	for *link >= 0 && c.before(*link, i) {
		link = &c.ev[*link].next
	}
	c.ev[i].next, *link = *link, i
	if c.head < 0 || c.before(i, c.head) {
		c.head, c.cur = i, int64(at)>>c.shift
	}
}

// pop removes the head and returns it, then finds the new head: the first
// bucket from the head's on whose first flow falls in that very window.
// Every pending arrival is at or after the old head, so the scan cannot
// skip one; a full empty lap falls back to the least bucket front.
func (c *probeCalendar) pop() int32 {
	i := c.head
	b := &c.bucket[c.cur&c.mask]
	*b = c.ev[i].next
	for a := c.cur; a <= c.cur+c.mask; a++ {
		if j := c.bucket[a&c.mask]; j >= 0 && int64(c.ev[j].at)>>c.shift == a {
			c.head, c.cur = j, a
			return i
		}
	}
	c.head = -1
	for _, j := range c.bucket {
		if j >= 0 && (c.head < 0 || c.before(j, c.head)) {
			c.head = j
		}
	}
	if c.head >= 0 {
		c.cur = int64(c.ev[c.head].at) >> c.shift
	}
	return i
}
