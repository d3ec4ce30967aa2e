package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
)

// The hierarchical scatternet roll-up: a city-scale campaign (10³ piconets)
// cannot afford one retained result per piconet, so the sharded engine folds
// every finished piconet into a per-shard ScatternetFold and merges the
// shard partials into one metro-wide report. The fold reuses the PR 7
// depend-trace merge idiom: everything order-insensitive merges
// algebraically (the Table 2 evidence cells, Table 3 counts, per-host and
// per-app maps, histogram bins and scalar counters are all integer sums, so
// the merge is exact and associative), while the order-sensitive Table 4
// accumulator is re-derived at Finalize from the piconet-tagged failure
// traces, sorted into deployment order by the total key
// (time, piconet, within-piconet fold position) — the merge tier's
// replayDepend with the piconet as the group. Because the final sort key
// is total, the merged report is byte-identical no matter how many shards
// folded the piconets or in which order they finished — the shard-count
// invariance law pinned by the merge-law tests.

// ScatternetFold accumulates finished piconet campaigns into one metro
// partial. Shard workers each own a fold; Merge combines shard partials and
// Finalize produces the deployment-wide aggregates. Not safe for concurrent
// use — each shard folds on its own goroutine and the partials merge after
// the barrier.
type ScatternetFold struct {
	scenario string
	agg      *Aggregates
	masked   int
	trace    []taggedEvent // group = piconet
	rows     []PiconetRow
}

// NewScatternetFold allocates an empty fold for the given recovery-scenario
// label (the Dependability column name).
func NewScatternetFold(scenario string) *ScatternetFold {
	return &ScatternetFold{scenario: scenario}
}

// AddPiconet folds one finished piconet campaign: its overview row is
// derived before the aggregates are absorbed (the fold takes ownership of
// agg — the caller must not use it afterwards), and the piconet-tagged
// depend trace joins the deployment sequence. trace must be the piconet's
// fold-ordered unmasked-failure trace (StreamSpec.TraceDepend). A refused
// piconet leaves the fold as it was.
func (f *ScatternetFold) AddPiconet(piconet int, agg *Aggregates, trace []DependEvent) error {
	if agg == nil {
		return fmt.Errorf("analysis: scatternet fold of piconet %d without aggregates", piconet)
	}
	if f.agg != nil && (agg.Window != f.agg.Window || agg.Radius != f.agg.Radius) {
		return fmt.Errorf("analysis: piconet %d aggregates disagree on window/radius", piconet)
	}
	tagged, err := tagTrace(f.trace, trace, agg.Depend.Failures, func(*DependEvent) int { return piconet })
	if err != nil {
		return fmt.Errorf("analysis: piconet %d %w", piconet, err)
	}
	f.trace = tagged
	u, s, _ := agg.DataItems()
	f.rows = append(f.rows, PiconetRow{
		Piconet:       piconet,
		UserReports:   u,
		SystemEntries: s,
		Depend:        agg.Dependability(f.scenario),
	})
	f.masked += agg.Depend.Masked
	if f.agg == nil {
		f.agg = agg
	} else {
		addAggregates(f.agg, agg)
	}
	return nil
}

// Merge absorbs another shard's partial into f (o must not be used
// afterwards); a refused partial leaves f as it was. Merging is exact:
// every combined field is an integer sum or a concatenation that Finalize
// re-sorts by a total key.
func (f *ScatternetFold) Merge(o *ScatternetFold) error {
	if o == nil || o.agg == nil {
		return nil
	}
	if f.agg != nil && (o.agg.Window != f.agg.Window || o.agg.Radius != f.agg.Radius) {
		return fmt.Errorf("analysis: scatternet fold partials disagree on window/radius")
	}
	f.rows = append(f.rows, o.rows...)
	f.trace = append(f.trace, o.trace...)
	f.masked += o.masked
	if f.agg == nil {
		f.agg = o.agg
	} else {
		addAggregates(f.agg, o.agg)
	}
	return nil
}

// Finalize sorts the deployment trace into campaign order, re-derives the
// deployment-wide Table 4 accumulator from it (exactly the MergeAggregates
// idiom), and returns the metro aggregates plus the per-piconet overview in
// piconet order. The fold must not be reused afterwards.
func (f *ScatternetFold) Finalize() (*Aggregates, *PiconetOverview, error) {
	if f.agg == nil {
		return nil, nil, fmt.Errorf("analysis: finalize of an empty scatternet fold")
	}
	f.agg.Depend = replayDepend(f.trace, f.masked)
	sort.Slice(f.rows, func(i, j int) bool { return f.rows[i].Piconet < f.rows[j].Piconet })
	return f.agg, &PiconetOverview{Rows: f.rows}, nil
}

// Rollup finalizes the fold (it must not be reused afterwards) into the
// metro report of a campaign of the given piconet count that sampled relay
// probe pairs with fraction probeSample. The fraction is normalized for
// reporting: 0 (unset) and anything >= 1 both mean the exhaustive plane,
// fraction 1. The caller adds the overlay's bridge and relay-depth planes.
func (f *ScatternetFold) Rollup(piconets int, probeSample float64) (*ScatternetRollup, error) {
	agg, overview, err := f.Finalize()
	if err != nil {
		return nil, err
	}
	if probeSample <= 0 || probeSample >= 1 {
		probeSample = 1
	}
	return &ScatternetRollup{Piconets: piconets, Scenario: f.scenario, Agg: agg,
		Overview: overview, ProbePairFraction: probeSample}, nil
}

// ScatternetRollup is the one-report view of a city-scale scatternet
// campaign: deployment-wide paper tables merged across every piconet, the
// per-piconet overview, the all-bridge coupling summary and the (possibly
// sampled) delay-vs-depth table.
type ScatternetRollup struct {
	// Piconets is the campaign's piconet count.
	Piconets int
	// Scenario labels the recovery regime.
	Scenario string
	// Agg holds the deployment-wide merged aggregates: Table 2/3 merged
	// exactly across piconets, Depend re-derived over the interleaved
	// deployment failure sequence.
	Agg *Aggregates
	// Overview lines up every piconet's dataset sizes and dependability.
	Overview *PiconetOverview
	// Bridges is the all-bridge summary row (every bridge row merged; nil
	// when the campaign had no bridges); BridgeCount is the row count it
	// summarizes.
	Bridges     *BridgeAccum
	BridgeCount int
	// RelayDepth is the delay-vs-depth table, merged from the per-source
	// probe partials in piconet order.
	RelayDepth *RelayDepthAccum
	// ProbePairFraction is the relay-probe pair-sampling fraction the
	// campaign ran (1 = exhaustive); RelayDepth estimates scale by its
	// inverse (see RelayDepthAccum.EstimatedProbes).
	ProbePairFraction float64
}

// Render formats the metro report: deployment dependability, merged paper
// tables, the overview spread, and the bridge/relay planes.
func (r *ScatternetRollup) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scatternet roll-up: %d piconets, %d bridges (scenario %s)\n",
		r.Piconets, r.BridgeCount, r.Scenario)
	d := r.Agg.Dependability(r.Scenario)
	u, s, tot := r.Agg.DataItems()
	fmt.Fprintf(&b, "deployment: %d user reports + %d system entries = %d items\n", u, s, tot)
	fmt.Fprintf(&b, "deployment MTTF %.2f s, MTTR %.2f s, availability %.6f, %d failures (%d masked)\n",
		d.MTTF, d.MTTR, d.Availability, d.Failures, d.Masked)
	fmt.Fprintf(&b, "\nDeployment Table 2 (error-failure relationship, all piconets)\n%s",
		r.Agg.Table2().Render())
	fmt.Fprintf(&b, "Deployment Table 3 (SIRA effectiveness, all piconets)\n%s",
		r.Agg.Table3().Render())
	fmt.Fprintf(&b, "\nPiconet overview\n%s", r.Overview.Render())
	if r.Bridges != nil {
		fmt.Fprintf(&b, "\nAll-bridge summary (%d bridges merged)\n", r.BridgeCount)
		fmt.Fprintf(&b, "hops=%d relayed=%d lost=%d corrupt=%d outages=%d downtime=%.1f s mean-latency=%.2f s\n",
			r.Bridges.Hops, r.Bridges.Relayed, r.Bridges.RelayLost, r.Bridges.RelayCorrupted,
			r.Bridges.Outages, r.Bridges.Downtime.Sum(), r.Bridges.RelayLatency.Mean())
	}
	if r.RelayDepth != nil && (len(r.RelayDepth.ByDepth) > 0 || r.RelayDepth.Unreachable > 0) {
		fmt.Fprintf(&b, "\nRelay delay vs depth (pair sample fraction %.4f)\n%s",
			r.ProbePairFraction, r.RelayDepth.RenderSampled(r.ProbePairFraction))
	}
	return b.String()
}

// RenderTaxonomy formats the deployment-wide taxonomy/survival plane
// (PR 10): the per-phase failure split over every piconet, the
// Kaplan-Meier node-uptime curve and the interarrival histogram. Kept out
// of Render so the default roll-up report stays byte-identical to its
// pre-taxonomy captures; btcampaign -taxonomy appends it.
func (r *ScatternetRollup) RenderTaxonomy(duration sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Deployment failure taxonomy (phase x transience)\n%s",
		r.Agg.Tax.Table(duration).Render())
	fmt.Fprintf(&b, "\n%s", r.Agg.Surv.Curve(duration).Render())
	fmt.Fprintf(&b, "\n%s", r.Agg.Surv.RenderInterarrival(40))
	return b.String()
}
