package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// The scatternet views: when piconet campaigns are composed into a bridged
// multi-piconet topology (internal/scatternet), two aggregate families are
// added on top of the per-piconet tables. Both are streaming accumulators in
// the PR 2 sense — O(1) state in campaign duration, fed one event at a time
// — so a month-scale scatternet campaign stays O(1) in memory end to end.
//
//   - BridgeAccum / BridgeTable attribute inter-piconet traffic and outages
//     to the bridge nodes that time-share across piconets: relayed SDUs,
//     relay losses, store-and-forward latency, and — the failure-coupling
//     signal — outages that one bridge failure propagates to every piconet
//     it serves.
//   - PiconetOverview lines up the per-piconet dependability columns so the
//     piconet-to-piconet spread of MTTF/MTTR/availability is visible at a
//     glance.

// BridgeCoupling is one served piconet's view of one bridge: how often the
// bridge's failures took this piconet's inter-piconet service down, for how
// long, and what relay traffic the piconet got (or lost) through it.
type BridgeCoupling struct {
	// Piconet is the served piconet's index in the scatternet.
	Piconet int
	// Outages counts the bridge failures this piconet experienced as
	// correlated inter-piconet service outages. Every piconet a bridge
	// serves records the same failure episode, which is exactly the
	// correlation the scatternet subsystem exists to measure.
	Outages int
	// OutageSeconds accumulates the downtime those outages imposed.
	OutageSeconds float64
	// Delivered counts relay SDUs the bridge carried into this piconet.
	Delivered int
	// Lost counts relay SDUs destined for this piconet that died on the
	// bridge's radio link (RF/ARQ loss while relaying).
	Lost int
	// Corrupted counts relay SDUs delivered with payload corruption.
	Corrupted int
	// DroppedInOutage counts relay SDUs offered for this piconet while the
	// bridge was down — the traffic a bridge failure costs its piconets.
	DroppedInOutage int
	// DroppedQueueFull counts relay SDUs that found the bridge's
	// store-and-forward queue for this piconet full.
	DroppedQueueFull int
}

// BridgeAccum is the streaming accumulator behind one bridge's row of the
// bridge-attributed table. The scatternet overlay feeds it one event at a
// time; all state is O(1) in campaign duration.
type BridgeAccum struct {
	// Bridge is the bridge node's name ("bridge0", ...).
	Bridge string
	// Device names the hardware-catalogue machine the bridge is built from.
	Device string
	// Serves lists the piconet indices the bridge time-shares across.
	Serves []int

	// Hops counts completed residency switches (attach to a new piconet).
	Hops int
	// Relayed / RelayLost / RelayCorrupted total the per-piconet delivery
	// counters across every served piconet.
	Relayed, RelayLost, RelayCorrupted int
	// Outages counts the bridge's failure episodes; each propagates to all
	// served piconets (see BridgeCoupling.Outages).
	Outages int
	// SysErrors counts system-level errors the bridge's own stack raised
	// (its System Log volume, kept as a counter so overlay memory is O(1)).
	SysErrors int
	// FailuresByKind classifies the failures that caused outages.
	FailuresByKind map[core.UserFailure]int
	// Downtime summarizes per-outage downtime seconds.
	Downtime stats.Summary
	// RelayLatency summarizes store-and-forward latency seconds
	// (SDU arrival at the bridge to delivery into the destination piconet);
	// it includes hold-time waits and outage delays, so it is the
	// Rondón-style relay-delay signal.
	RelayLatency stats.Summary

	// Coupling holds the per-piconet views, aligned with Serves.
	Coupling []*BridgeCoupling
}

// NewBridgeAccum allocates the accumulator for a bridge serving the given
// piconets.
func NewBridgeAccum(bridge, device string, serves []int) *BridgeAccum {
	a := &BridgeAccum{
		Bridge:         bridge,
		Device:         device,
		Serves:         append([]int(nil), serves...),
		FailuresByKind: make(map[core.UserFailure]int),
	}
	for _, p := range a.Serves {
		a.Coupling = append(a.Coupling, &BridgeCoupling{Piconet: p})
	}
	return a
}

// coupling finds the served piconet's view (nil for an unserved piconet).
func (a *BridgeAccum) coupling(piconet int) *BridgeCoupling {
	for _, c := range a.Coupling {
		if c.Piconet == piconet {
			return c
		}
	}
	return nil
}

// AddHop records a completed residency switch.
func (a *BridgeAccum) AddHop() { a.Hops++ }

// AddDelivery records one relay SDU delivered into a piconet after waiting
// latencySeconds in the bridge's store-and-forward queue.
func (a *BridgeAccum) AddDelivery(piconet int, latencySeconds float64) {
	a.Relayed++
	a.RelayLatency.Add(latencySeconds)
	if c := a.coupling(piconet); c != nil {
		c.Delivered++
	}
}

// AddRelayLoss records one relay SDU lost on the radio link while being
// delivered into a piconet.
func (a *BridgeAccum) AddRelayLoss(piconet int) {
	a.RelayLost++
	if c := a.coupling(piconet); c != nil {
		c.Lost++
	}
}

// AddCorruption records one relay SDU delivered corrupted.
func (a *BridgeAccum) AddCorruption(piconet int) {
	a.RelayCorrupted++
	if c := a.coupling(piconet); c != nil {
		c.Corrupted++
	}
}

// AddOutage records one bridge failure episode of the given kind and
// duration. The outage is attributed to every piconet the bridge serves —
// the correlated-failure bookkeeping at the heart of the scatternet study.
func (a *BridgeAccum) AddOutage(f core.UserFailure, seconds float64) {
	a.Outages++
	a.FailuresByKind[f]++
	a.Downtime.Add(seconds)
	for _, c := range a.Coupling {
		c.Outages++
		c.OutageSeconds += seconds
	}
}

// AddOutageDrop records one relay SDU offered for a piconet while the
// bridge was down.
func (a *BridgeAccum) AddOutageDrop(piconet int) {
	if c := a.coupling(piconet); c != nil {
		c.DroppedInOutage++
	}
}

// Merge folds another bridge's accumulator into a, producing a summary row
// covering both (the hierarchical roll-up's all-bridge line; a keeps its own
// Bridge/Device labels). Counters and per-kind failure tallies sum exactly;
// Downtime and RelayLatency merge via the parallel Welford combination;
// Serves becomes the sorted union and Coupling the piconet-matched sum,
// re-sorted by piconet so merged rows render identically regardless of
// merge grouping.
func (a *BridgeAccum) Merge(o *BridgeAccum) {
	if o == nil {
		return
	}
	a.Hops += o.Hops
	a.Relayed += o.Relayed
	a.RelayLost += o.RelayLost
	a.RelayCorrupted += o.RelayCorrupted
	a.Outages += o.Outages
	a.SysErrors += o.SysErrors
	for k, n := range o.FailuresByKind {
		a.FailuresByKind[k] += n
	}
	a.Downtime.Merge(o.Downtime)
	a.RelayLatency.Merge(o.RelayLatency)
	for _, oc := range o.Coupling {
		c := a.coupling(oc.Piconet)
		if c == nil {
			c = &BridgeCoupling{Piconet: oc.Piconet}
			a.Coupling = append(a.Coupling, c)
			a.Serves = append(a.Serves, oc.Piconet)
		}
		c.Outages += oc.Outages
		c.OutageSeconds += oc.OutageSeconds
		c.Delivered += oc.Delivered
		c.Lost += oc.Lost
		c.Corrupted += oc.Corrupted
		c.DroppedInOutage += oc.DroppedInOutage
		c.DroppedQueueFull += oc.DroppedQueueFull
	}
	sort.Ints(a.Serves)
	sort.Slice(a.Coupling, func(i, j int) bool { return a.Coupling[i].Piconet < a.Coupling[j].Piconet })
}

// AddQueueDrop records one relay SDU that found the piconet's
// store-and-forward queue full.
func (a *BridgeAccum) AddQueueDrop(piconet int) {
	if c := a.coupling(piconet); c != nil {
		c.DroppedQueueFull++
	}
}

// BridgeTable is the bridge-attributed aggregate of a scatternet campaign:
// one row per bridge plus the piconet-coupling roll-up.
type BridgeTable struct {
	Rows []*BridgeAccum
}

// TotalOutages sums every bridge's failure episodes.
func (t *BridgeTable) TotalOutages() int {
	n := 0
	for _, r := range t.Rows {
		n += r.Outages
	}
	return n
}

// CorrelatedOutages counts (bridge outage, served piconet) pairs — the
// number of piconet-level service interruptions bridge failures caused.
// A single bridge failure serving K piconets contributes K.
func (t *BridgeTable) CorrelatedOutages() int {
	n := 0
	for _, r := range t.Rows {
		n += r.Outages * len(r.Serves)
	}
	return n
}

// TotalDowntimeSeconds sums every bridge's outage time.
func (t *BridgeTable) TotalDowntimeSeconds() float64 {
	s := 0.0
	for _, r := range t.Rows {
		s += r.Downtime.Sum()
	}
	return s
}

// PiconetCoupling aggregates what piconet p suffered from every bridge that
// serves it: correlated outages, downtime, and relay SDUs lost to outages.
func (t *BridgeTable) PiconetCoupling(p int) (outages int, downtimeSeconds float64, droppedInOutage int) {
	for _, r := range t.Rows {
		for _, c := range r.Coupling {
			if c.Piconet == p {
				outages += c.Outages
				downtimeSeconds += c.OutageSeconds
				droppedInOutage += c.DroppedInOutage
			}
		}
	}
	return outages, downtimeSeconds, droppedInOutage
}

// piconets lists every piconet index any bridge serves, ascending.
func (t *BridgeTable) piconets() []int {
	seen := map[int]bool{}
	for _, r := range t.Rows {
		for _, p := range r.Serves {
			seen[p] = true
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Render formats the bridge rows and the per-piconet coupling roll-up.
func (t *BridgeTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %-8s %5s %8s %6s %8s %8s %10s %10s\n",
		"bridge", "device", "serves", "hops", "relayed", "lost", "corrupt", "outages", "down (s)", "lat (s)")
	for _, r := range t.Rows {
		serves := make([]string, len(r.Serves))
		for i, p := range r.Serves {
			serves[i] = fmt.Sprintf("%d", p)
		}
		fmt.Fprintf(&b, "%-8s %-8s %-8s %5d %8d %6d %8d %8d %10.1f %10.2f\n",
			r.Bridge, r.Device, strings.Join(serves, ","), r.Hops,
			r.Relayed, r.RelayLost, r.RelayCorrupted, r.Outages,
			r.Downtime.Sum(), r.RelayLatency.Mean())
	}
	fmt.Fprintf(&b, "\n%-8s %14s %14s %16s\n",
		"piconet", "corr. outages", "downtime (s)", "dropped in outage")
	for _, p := range t.piconets() {
		o, d, drops := t.PiconetCoupling(p)
		fmt.Fprintf(&b, "%-8d %14d %14.1f %16d\n", p, o, d, drops)
	}
	return b.String()
}

// PiconetRow is one piconet's line of the scatternet overview.
type PiconetRow struct {
	// Piconet is the piconet's index in the scatternet.
	Piconet int
	// UserReports / SystemEntries are the piconet's dataset sizes.
	UserReports, SystemEntries int
	// Depend is the piconet's Table 4 column.
	Depend *Dependability
}

// PiconetOverview lines the per-piconet dependability columns up so the
// piconet-to-piconet spread of a scatternet campaign is visible at a glance.
type PiconetOverview struct {
	Rows []PiconetRow
}

// Render formats the overview, one piconet per line.
func (o *PiconetOverview) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %8s %10s %10s %8s %10s\n",
		"piconet", "reports", "entries", "MTTF (s)", "MTTR (s)", "avail", "failures")
	for _, r := range o.Rows {
		fmt.Fprintf(&b, "%-8d %8d %8d %10.2f %10.2f %8.3f %10d\n",
			r.Piconet, r.UserReports, r.SystemEntries,
			r.Depend.MTTF, r.Depend.MTTR, r.Depend.Availability, r.Depend.Failures)
	}
	return b.String()
}
