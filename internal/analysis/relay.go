package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/stats"
)

// The relay-depth view: when a scatternet's topology has diameter > 1, an
// inter-piconet SDU relays through several bridges, and every hop adds
// store-and-forward delay — the bridge must rotate its residency to the
// pickup piconet, carry the SDU, and rotate again to the delivery piconet
// (plus wait out any outage in progress). RelayDepthAccum buckets the probe
// plane's end-to-end delays by route depth (bridge count), producing the
// delay-versus-relay-depth table that Bluetooth-mesh latency studies
// (arXiv:1910.03345) report for physical deployments. All state is O(depths)
// — streaming-compatible like every scatternet aggregate.

// RelayDepthAccum is the streaming accumulator behind the delay-vs-depth
// table. The scatternet probe plane feeds it one routed probe at a time.
type RelayDepthAccum struct {
	// ByDepth summarizes end-to-end relay delay seconds per route depth
	// (number of bridges on the path; depth 1 is a direct bridge).
	ByDepth map[int]*stats.Summary
	// Unreachable counts probes between piconets with no bridge path at all
	// (a disconnected membership map).
	Unreachable int
}

// NewRelayDepthAccum allocates an empty accumulator.
func NewRelayDepthAccum() *RelayDepthAccum {
	return &RelayDepthAccum{ByDepth: make(map[int]*stats.Summary)}
}

// Depth returns the delay summary of the given route depth, adding an empty
// one on first use. A routed probe over depth bridges that took d seconds
// end to end is recorded as Depth(depth).Add(d); a caller that records
// many probes at one depth may hold the summary to skip the map lookup.
// The summary must get its first Add before the table renders, or the
// empty row shows up in it.
func (a *RelayDepthAccum) Depth(depth int) *stats.Summary {
	s := a.ByDepth[depth]
	if s == nil {
		s = &stats.Summary{}
		a.ByDepth[depth] = s
	}
	return s
}

// AddUnreachable records one probe with no route.
func (a *RelayDepthAccum) AddUnreachable() { a.Unreachable++ }

// Merge folds another accumulator into a (o may be reused afterwards but is
// conventionally discarded). Each depth's summary merges via the parallel
// Welford combination, so the hierarchical roll-up merges per-source probe
// partials in a fixed (source-piconet) order to keep reports byte-stable.
func (a *RelayDepthAccum) Merge(o *RelayDepthAccum) {
	if o == nil {
		return
	}
	for _, d := range o.Depths() {
		a.Depth(d).Merge(*o.ByDepth[d])
	}
	a.Unreachable += o.Unreachable
}

// EstimatedProbes is the Horvitz–Thompson estimate of the probe count an
// exhaustive (fraction = 1) run would have recorded at the given depth: each
// sampled ordered pair stands in for 1/fraction pairs, so the estimate is
// observed/fraction. Delay moments (mean/min/max per depth) need no
// correction — pair inclusion is decided by a seeded coin independent of the
// pair's delay, so the sampled delays are an unbiased draw from the
// exhaustive delay population. fraction outside (0, 1] is treated as 1.
func (a *RelayDepthAccum) EstimatedProbes(depth int, fraction float64) float64 {
	s := a.ByDepth[depth]
	if s == nil {
		return 0
	}
	if fraction <= 0 || fraction >= 1 {
		return float64(s.N())
	}
	return float64(s.N()) / fraction
}

// RenderSampled formats the delay-vs-relay-depth table with the estimated
// exhaustive probe count per depth (see EstimatedProbes). At fraction 1 the
// estimate column equals the observed count and the table matches Render's
// content.
func (a *RelayDepthAccum) RenderSampled(fraction float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %10s %10s %10s %10s\n",
		"depth", "probes", "est. full", "mean (s)", "min (s)", "max (s)")
	for _, d := range a.Depths() {
		s := a.ByDepth[d]
		fmt.Fprintf(&b, "%-6d %8d %10.1f %10.2f %10.2f %10.2f\n",
			d, s.N(), a.EstimatedProbes(d, fraction), s.Mean(), s.Min(), s.Max())
	}
	if a.Unreachable > 0 {
		fmt.Fprintf(&b, "unreachable probes: %d\n", a.Unreachable)
	}
	return b.String()
}

// Probes reports the total routed probe count.
func (a *RelayDepthAccum) Probes() int {
	n := 0
	for _, s := range a.ByDepth {
		n += s.N()
	}
	return n
}

// Depths lists the observed route depths, ascending.
func (a *RelayDepthAccum) Depths() []int {
	out := make([]int, 0, len(a.ByDepth))
	for d := range a.ByDepth {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// Render formats the delay-vs-relay-depth table.
func (a *RelayDepthAccum) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %10s %10s %10s\n", "depth", "probes", "mean (s)", "min (s)", "max (s)")
	for _, d := range a.Depths() {
		s := a.ByDepth[d]
		fmt.Fprintf(&b, "%-6d %8d %10.2f %10.2f %10.2f\n", d, s.N(), s.Mean(), s.Min(), s.Max())
	}
	if a.Unreachable > 0 {
		fmt.Fprintf(&b, "unreachable probes: %d\n", a.Unreachable)
	}
	return b.String()
}

// RelayDepthRow is one depth's line of the sweep-level table: the per-seed
// probe count and mean delay, each as mean ± 95 % CI over the seeds.
type RelayDepthRow struct {
	// Depth is the route depth (bridges on the path).
	Depth int
	// Probes estimates the per-seed routed probe count at this depth.
	Probes stats.Estimate
	// Delay estimates the per-seed mean relay delay in seconds.
	Delay stats.Estimate
}

// RelayDepthCI is the delay-vs-relay-depth table with confidence intervals
// from a multi-seed scatternet sweep.
type RelayDepthCI struct {
	// Seeds is the number of campaigns summarized.
	Seeds int
	// Rows holds one line per observed depth, ascending.
	Rows []RelayDepthRow
	// Unreachable estimates the per-seed count of unroutable probes.
	Unreachable stats.Estimate
}

// BuildRelayDepthCI summarizes per-seed relay-depth accumulators. A depth
// missing from a seed contributes zero probes (and no delay sample) for that
// seed, so the CI reflects how reliably the topology produces that depth.
func BuildRelayDepthCI(accs []*RelayDepthAccum) *RelayDepthCI {
	ci := &RelayDepthCI{Seeds: len(accs)}
	depths := map[int]bool{}
	unreach := make([]float64, 0, len(accs))
	for _, a := range accs {
		for d := range a.ByDepth {
			depths[d] = true
		}
		unreach = append(unreach, float64(a.Unreachable))
	}
	ci.Unreachable = stats.CI95(unreach)
	sorted := make([]int, 0, len(depths))
	for d := range depths {
		sorted = append(sorted, d)
	}
	sort.Ints(sorted)
	for _, d := range sorted {
		var probes, delays []float64
		for _, a := range accs {
			if s := a.ByDepth[d]; s != nil {
				probes = append(probes, float64(s.N()))
				delays = append(delays, s.Mean())
			} else {
				probes = append(probes, 0)
			}
		}
		ci.Rows = append(ci.Rows, RelayDepthRow{
			Depth:  d,
			Probes: stats.CI95(probes),
			Delay:  stats.CI95(delays),
		})
	}
	return ci
}

// Render formats the sweep-level delay-vs-depth table.
func (ci *RelayDepthCI) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %16s %18s\n", "depth", "probes/seed", "mean delay (s)")
	for _, r := range ci.Rows {
		fmt.Fprintf(&b, "%-6d %16s %18s\n", r.Depth, r.Probes.Format("%.1f"), r.Delay.Format("%.2f"))
	}
	return b.String()
}
