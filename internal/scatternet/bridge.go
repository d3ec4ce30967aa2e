package scatternet

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pan"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stack"
)

// overlaySeedSalt decorrelates the overlay world from every piconet world
// derived from the same root seed.
const overlaySeedSalt = 0xB41D65CA77E27E7

// overlay is the inter-piconet plane: one independent simulation world that
// owns every bridge node plus one NAP-side anchor per piconet. The anchor
// is the piconet's access point as the bridge sees it — a full NAP host
// (HCI, SDP server, PAN profile) built from the catalogue's NAP machine —
// so bridge attachment and relay traffic exercise the real connection and
// data paths without reaching into the piconet worlds (which is what keeps
// every piconet bit-identical to its standalone run).
type overlay struct {
	world   *sim.World
	naps    []*stack.Host
	bridges []*bridge
	// outages[i] is bridge i's current outage: its bridge writes it, the
	// probe walks read it.
	outages []outage
	groups  []*redundancyGroup
	prober  *prober
	connID  uint64
}

// outage is one bridge's most recent outage: the instant it ends (zero
// before the first) and that instant's hold slot, until / HoldTime, so a
// probe waiting it out needs no division.
type outage struct {
	until sim.Time
	slot  int64
}

// newOverlay builds the overlay world for the given membership map: the NAP
// anchors, the bridge hosts, the redundancy-group trackers, and the
// multi-hop relay probe plane.
func newOverlay(cfg Config, topo Topology) *overlay {
	o := &overlay{world: sim.NewWorld(cfg.Seed ^ overlaySeedSalt)}
	napSpec := device.NAP()
	for p := 0; p < topo.Piconets; p++ {
		spec := napSpec
		spec.Name = fmt.Sprintf("nap%d", p)
		// Anchor system errors are the piconet side's noise; the bridge
		// table attributes only bridge-raised errors, so drop them.
		o.naps = append(o.naps, spec.BuildHost(o.world, &o.connID,
			func(core.ErrorCode, string) {}))
	}
	panus := device.PANUs()
	o.outages = make([]outage, len(topo.Members))
	for i, members := range topo.Members {
		spec := panus[i%len(panus)]
		o.bridges = append(o.bridges, newBridge(cfg, o, i, spec, members))
	}
	for _, group := range topo.RedundancyGroups() {
		names := make([]string, len(group))
		for i, b := range group {
			names[i] = o.bridges[b].name
		}
		g := newRedundancyGroup(topo.Members[group[0]], names)
		for i, b := range group {
			o.bridges[b].group, o.bridges[b].groupIdx = g, i
		}
		o.groups = append(o.groups, g)
	}
	o.prober = newProber(cfg, o, topo)
	return o
}

// Run starts every bridge and the probe plane, then advances the overlay
// world to the horizon.
func (o *overlay) Run(duration sim.Time) {
	for _, b := range o.bridges {
		b.start()
	}
	o.prober.start()
	o.world.RunUntil(duration)
}

// Table gathers the bridge-attributed aggregate.
func (o *overlay) Table() *analysis.BridgeTable {
	t := &analysis.BridgeTable{}
	for _, b := range o.bridges {
		t.Rows = append(t.Rows, b.acc)
	}
	return t
}

// RedundancyTable closes every group's open windows at the horizon and
// gathers the per-span redundancy aggregate.
func (o *overlay) RedundancyTable(duration sim.Time) *analysis.RedundancyTable {
	t := &analysis.RedundancyTable{}
	for _, g := range o.groups {
		t.Rows = append(t.Rows, g.closeAt(duration))
	}
	return t
}

// residencyAt reports which serves-index the hold schedule dictates at
// instant t: residency rotates one served piconet per HoldTime, anchored at
// t = 0. A bridge that recovers mid-slot rejoins at the residency the
// schedule dictates now — it does not resume where it failed.
func residencyAt(t, hold sim.Time, n int) int {
	if n <= 0 {
		return 0
	}
	return int((int64(t) / int64(hold)) % int64(n))
}

// relaySDU is one queued inter-piconet SDU (its arrival instant, for the
// store-and-forward latency accounting).
type relaySDU struct {
	at sim.Time
}

// bridge is one scatternet bridge node: a complete PANU-side stack host
// that time-shares attachment across the piconets it serves, relays queued
// SDUs through its PAN connection, and fails through the standard recovery
// cascade — taking the inter-piconet service of every served piconet down
// with it for the recovery TTR.
type bridge struct {
	name    string
	cfg     Config
	world   *sim.World
	host    *stack.Host
	cascade *recovery.Cascade
	rng     *rand.Rand
	arrRNGs []*rand.Rand
	serves  []int
	naps    []*stack.Host
	acc     *analysis.BridgeAccum

	resident int
	attached bool
	down     bool
	// conn and pipe point at connVal and pipeVal while attached and are
	// nil otherwise: every attachment reuses the same two values.
	conn      *pan.Conn
	pipe      *stack.Pipe
	connVal   pan.Conn
	pipeVal   stack.Pipe
	out       *outage // this bridge's entry in the overlay's outage table
	busyUntil sim.Time
	queues    [][]relaySDU

	// group is the bridge's redundancy group (bridges spanning the same
	// piconet set); groupIdx is its member slot in it.
	group    *redundancyGroup
	groupIdx int

	fnHop, fnDrain, fnRejoin func()
	fnArrive                 []func()
}

// newBridge assembles bridge i from a catalogue machine.
func newBridge(cfg Config, o *overlay, i int, spec device.Spec, serves []int) *bridge {
	name := fmt.Sprintf("bridge%d", i)
	hostCfg := spec.HostConfig()
	if cfg.MutateBridgeHost != nil {
		cfg.MutateBridgeHost(name, &hostCfg)
	}
	b := &bridge{
		name:   name,
		cfg:    cfg,
		world:  o.world,
		rng:    o.world.RNG("bridge." + name),
		serves: append([]int(nil), serves...),
		acc:    analysis.NewBridgeAccum(name, spec.Name, serves),
		out:    &o.outages[i],
		queues: make([][]relaySDU, len(serves)),
	}
	// The transport RNG stream is named after the spec, so give the bridge
	// a uniquely named copy (two bridges may share a catalogue machine).
	spec.Name = name
	b.host = stack.NewHost(hostCfg, o.world, name, spec.OS, spec.DistanceM,
		spec.IsPDA, false, spec.BuildTransport(o.world), &o.connID,
		func(core.ErrorCode, string) { b.acc.SysErrors++ })
	b.cascade = recovery.NewCascade(b.host, o.world.RNG("recovery."+name))
	for _, p := range serves {
		b.naps = append(b.naps, o.naps[p])
	}
	b.fnHop = b.hop
	b.fnDrain = b.drain
	b.fnRejoin = b.rejoin
	for d := range serves {
		d := d
		b.arrRNGs = append(b.arrRNGs, o.world.RNG(fmt.Sprintf("relay.%s.%d", name, d)))
		b.fnArrive = append(b.fnArrive, func() { b.arrive(d) })
	}
	return b
}

// start schedules the bridge's first attach (staggered so bridges do not
// page their NAPs in lockstep), the hold-time rotation, and the relay
// traffic arrival processes.
func (b *bridge) start() {
	b.world.Schedule(sim.Time(b.rng.Int64N(int64(sim.Second))), b.fnRejoin)
	b.world.Schedule(b.cfg.HoldTime, b.fnHop)
	for d := range b.serves {
		b.world.ScheduleAfter(b.nextArrival(d), b.fnArrive[d])
	}
}

// nextArrival samples the flow's exponential inter-arrival time.
func (b *bridge) nextArrival(d int) sim.Time {
	return sim.Time(b.arrRNGs[d].ExpFloat64() * float64(b.cfg.RelayEvery))
}

// arrive handles one relay SDU offered for destination serves[d]. Offered
// traffic during an outage is lost — a bridge failure costs every served
// piconet its inter-piconet service, which is the correlated-outage signal.
func (b *bridge) arrive(d int) {
	now := b.world.Now()
	switch {
	case now < b.out.until:
		b.acc.AddOutageDrop(b.serves[d])
	case len(b.queues[d]) >= queueCap:
		b.acc.AddQueueDrop(b.serves[d])
	default:
		b.queues[d] = append(b.queues[d], relaySDU{at: now})
		if b.attached && b.resident == d {
			delay := b.busyUntil - now
			if delay < 0 {
				delay = 0
			}
			b.world.ScheduleAfter(delay, b.fnDrain)
		}
	}
	b.world.ScheduleAfter(b.nextArrival(d), b.fnArrive[d])
}

// hop fires at every HoldTime boundary: the bridge leaves its current
// piconet and attaches to the one the schedule dictates. A bridge that is
// down skips the boundary (it rejoins when recovery completes).
func (b *bridge) hop() {
	now := b.world.Now()
	b.world.Schedule(now+b.cfg.HoldTime, b.fnHop)
	if now < b.out.until {
		return
	}
	next := residencyAt(now, b.cfg.HoldTime, len(b.serves))
	if b.attached && next == b.resident {
		return
	}
	b.detach()
	if b.attach(next) && b.cfg.OnBridgeHop != nil {
		b.cfg.OnBridgeHop(b.name, now, b.serves[next])
	}
}

// rejoin attaches the bridge to the schedule-dictated piconet outside the
// boundary rotation: at campaign start and when an outage ends mid-slot. It
// also closes the bridge's redundancy-group outage window — rejoin is
// scheduled at every outage's end, so the window closes exactly on time even
// when a same-instant hop re-attaches the bridge first.
func (b *bridge) rejoin() {
	now := b.world.Now()
	if b.down && now >= b.out.until {
		b.down = false
		if b.group != nil {
			b.group.memberUp(b.groupIdx, now)
		}
	}
	if b.attached || now < b.out.until {
		return
	}
	b.attach(residencyAt(now, b.cfg.HoldTime, len(b.serves)))
}

// detach quietly leaves the current piconet.
func (b *bridge) detach() {
	if b.conn != nil {
		b.host.PANU.Disconnect(b.conn, b.naps[b.resident].NAP)
	}
	b.conn, b.pipe = nil, nil
	b.attached = false
}

// attach joins piconet serves[idx] through the full connection chain —
// baseband page, PAN profile connect, master/slave switch (the operation
// that makes a node a scatternet bridge) — and reports success. Failures
// run the bridge failure path.
func (b *bridge) attach(idx int) bool {
	b.resident = idx
	nap := b.naps[idx]
	var dur sim.Time
	hd, res := b.host.HCI.CreateConnection(nap.Node)
	dur += res.Dur
	if res.Err != nil {
		b.fail(core.UFConnectFailed)
		return false
	}
	pres := b.host.PANU.Connect(hd, nap.NAP, true, &b.connVal)
	dur += pres.Dur
	if pres.Err != nil {
		if pres.Stage == pan.StageL2CAP {
			b.fail(core.UFConnectFailed)
		} else {
			b.fail(core.UFPANConnectFailed)
		}
		return false
	}
	b.conn = &b.connVal
	sres := b.host.PANU.SwitchRole(b.conn, nap.NAP)
	dur += sres.Dur
	if sres.Err != nil {
		if pan.RequestLegFailed(sres.Err) {
			b.fail(core.UFSwitchRoleRequestFailed)
		} else {
			b.fail(core.UFSwitchRoleCommandFailed)
		}
		return false
	}
	b.pipeVal = b.host.OpenPipe(b.conn)
	b.pipe = &b.pipeVal
	b.attached = true
	b.busyUntil = b.world.Now() + dur
	b.acc.AddHop()
	if len(b.queues[idx]) > 0 {
		b.world.ScheduleAfter(dur, b.fnDrain)
	}
	return true
}

// drain relays the resident piconet's queued SDUs through the pipe. A lost
// SDU is a bridge failure mid-relay: the remaining queue survives for the
// next residency, but the bridge goes down for the recovery TTR.
func (b *bridge) drain() {
	if !b.attached || b.world.Now() < b.out.until {
		return
	}
	now := b.world.Now()
	if now < b.busyUntil {
		// The link is still carrying an earlier transfer; try again when
		// it frees up instead of overlapping transmissions.
		b.world.Schedule(b.busyUntil, b.fnDrain)
		return
	}
	q := b.queues[b.resident]
	var dur sim.Time
	for i, sdu := range q {
		_, outcome, elapsed := b.pipe.SendRun(core.PTDH5, b.cfg.RelayBytes, 1)
		dur += elapsed
		switch outcome {
		case stack.PacketLost:
			b.acc.AddRelayLoss(b.serves[b.resident])
			b.queues[b.resident] = append(q[:0], q[i+1:]...)
			b.fail(core.UFPacketLoss)
			return
		case stack.PacketCorrupted:
			b.acc.AddCorruption(b.serves[b.resident])
		default:
			b.acc.AddDelivery(b.serves[b.resident], (now + dur - sdu.at).Seconds())
		}
	}
	b.queues[b.resident] = q[:0]
	b.extendBusy(now + dur)
}

// extendBusy advances the link-busy horizon monotonically (a no-op drain
// must never roll an in-flight transfer's window back).
func (b *bridge) extendBusy(until sim.Time) {
	if until > b.busyUntil {
		b.busyUntil = until
	}
}

// fail runs the bridge's recovery for a failure of kind f and opens the
// correlated outage window: the bridge drops its piconet attachment, stays
// down for the cascade's TTR, and every piconet it serves records the
// outage. Recovery completion schedules the rejoin.
func (b *bridge) fail(f core.UserFailure) {
	if b.conn != nil {
		b.host.PANU.Abort(b.conn, b.naps[b.resident].NAP)
	}
	b.conn, b.pipe = nil, nil
	b.attached = false
	depth, ok := recovery.SampleDepth(f, b.rng)
	if !ok {
		return
	}
	ttr := b.cascade.RunWithDepth(b.cfg.Scenario, depth).TTR
	b.out.until = b.world.Now() + ttr
	b.out.slot = int64(b.out.until) / int64(b.cfg.HoldTime)
	b.acc.AddOutage(f, ttr.Seconds())
	if !b.down {
		b.down = true
		if b.group != nil {
			b.group.memberDown(b.groupIdx, b.world.Now())
		}
	}
	b.world.Schedule(b.out.until, b.fnRejoin)
}
