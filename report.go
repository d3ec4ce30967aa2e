package btpan

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// ResultFromAggregates reassembles a CampaignResult from completed streaming
// aggregates plus the per-testbed workload counters and durations: the
// sink's for a distributed campaign (which the agents ship in their Done
// frames), the in-process Streamer's for RunCampaign. Every aggregate query
// (Table 2/3/4, figures, §6 scalars, data items) then runs through the same
// code path wherever the fold happened, which is what makes the distributed
// ≡ single-process equivalence a digit-for-digit claim rather than a
// tolerance check. The result holds no records.
func ResultFromAggregates(cfg CampaignConfig, agg *analysis.Aggregates,
	counters map[string]map[string]*workload.Counters,
	durations map[string]sim.Time) (*CampaignResult, error) {
	if agg == nil {
		return nil, fmt.Errorf("btpan: nil aggregates")
	}
	res := &CampaignResult{Config: cfg, Agg: agg}
	for _, name := range []string{"random", "realistic"} {
		if counters[name] == nil {
			return nil, fmt.Errorf("btpan: no counters for the %q testbed", name)
		}
		tb := &testbed.Results{Name: name, Duration: durations[name],
			Counters: make(map[string]*workload.Counters, len(counters[name]))}
		for node, c := range counters[name] {
			tb.Counters[node] = c
		}
		if name == "random" {
			res.Random = tb
		} else {
			res.Realistic = tb
		}
	}
	return res, nil
}

// ResultFromRecords folds stored campaign records (both testbeds' user
// reports and system entries, as btcampaign -out writes them) into a
// CampaignResult that also keeps them, on the standard campaign's stream
// roster (testbed.CampaignStreamSpec): a record naming any other testbed or
// node is an error. Each node's records must be in log order. The files
// carry neither the campaign identity nor the workload counters, so the
// result's Config is zero and Fig3a, the §6 scalars and the Table 4 column
// have nothing behind them; the record views and Tables 2 and 3 do.
func ResultFromRecords(reports []core.UserReport, entries []core.SystemEntry) (*CampaignResult, error) {
	spec := testbed.CampaignStreamSpec()
	s, err := analysis.NewStreamer(spec)
	if err != nil {
		return nil, err
	}
	byName := make(map[string]*testbed.Results, len(spec.Testbeds))
	for _, tb := range spec.Testbeds {
		byName[tb.Name] = &testbed.Results{Name: tb.Name, NAPNode: tb.NAP,
			PerNodeReports: make(map[string][]core.UserReport),
			PerNodeEntries: make(map[string][]core.SystemEntry)}
	}
	// The streamer rejects a stream outside the roster, so byName has
	// every testbed a record that got past Ingest names.
	for i, r := range reports {
		if err := s.Ingest(r.Testbed, r.Node, reports[i:i+1], nil, 0); err != nil {
			return nil, err
		}
		tb := byName[r.Testbed]
		tb.PerNodeReports[r.Node] = append(tb.PerNodeReports[r.Node], r)
	}
	for i, e := range entries {
		if err := s.Ingest(e.Testbed, e.Node, nil, entries[i:i+1], 0); err != nil {
			return nil, err
		}
		tb := byName[e.Testbed]
		tb.PerNodeEntries[e.Node] = append(tb.PerNodeEntries[e.Node], e)
	}
	return &CampaignResult{Random: byName["random"], Realistic: byName["realistic"],
		Agg: s.Finalize()}, nil
}

// WriteReport renders the campaign's streaming report — dataset sizes, the
// Table 4 column, the §6 scalars, and Tables 2 and 3 — in the canonical
// format shared by btcampaign -stream and btsink. The multi-process smoke
// test diffs the two outputs byte for byte, so any change here changes both
// sides at once.
func WriteReport(w io.Writer, res *CampaignResult) {
	u, s, tot := res.DataItems()
	fmt.Fprintf(w, "collected %d user reports + %d system entries = %d items\n", u, s, tot)
	d := res.Dependability()
	fmt.Fprintf(w, "MTTF %.2f s, MTTR %.2f s, availability %.3f, coverage %.1f%%\n",
		d.MTTF, d.MTTR, d.Availability, d.CoveragePct)
	sc := res.Scalars()
	fmt.Fprintf(w, "random-workload share %.1f%% (paper: 84%%), idle before failed %.2f s vs clean %.2f s\n",
		sc.RandomSharePct, sc.IdleBeforeFailedMean, sc.IdleBeforeCleanMean)
	fmt.Fprintf(w, "\nTable 2 (error-failure relationship)\n%s", res.Table2().Render())
	fmt.Fprintf(w, "\nTable 3 (SIRA effectiveness)\n%s", res.Table3().Render())
	t4 := &analysis.Table4{Columns: []*analysis.Dependability{d}}
	fmt.Fprintf(w, "\nTable 4 column\n%s", t4.Render())
}

// WriteTaxonomyReport renders the PR 10 taxonomy/survival plane — the
// per-phase failure split with MTBF/MTTR, the Kaplan-Meier node-uptime
// survival curve and the failure-interarrival histogram — in the shared
// canonical format (btcampaign -taxonomy and the btsink live tables use
// the same renderers, so the distributed equivalence stays byte-exact).
func WriteTaxonomyReport(w io.Writer, res *CampaignResult) {
	horizon := res.Config.Duration
	fmt.Fprintf(w, "\nFailure taxonomy (phase x transience)\n%s",
		res.Taxonomy().Table(horizon).Render())
	surv := res.Survival()
	fmt.Fprintf(w, "\n%s", surv.Curve(horizon).Render())
	fmt.Fprintf(w, "\n%s", surv.RenderInterarrival(40))
}

// WriteMetroReport renders a scatternet roll-up — the hierarchical metro
// report — in the canonical format shared by btcampaign -scatternet
// -rollup and btmerge -scatternet, so a distributed metro campaign is
// diffable byte for byte against the single-process one. redundancy is
// nil when the campaign has no bridges. With taxonomy it appends the
// deployment-wide taxonomy plane over the duration and the
// partition-candidate spans: every span whose bridges were all down at once
// for at least 30 s.
func WriteMetroReport(w io.Writer, roll *analysis.ScatternetRollup,
	redundancy *analysis.RedundancyTable, duration sim.Time, taxonomy bool) {
	fmt.Fprintf(w, "\n%s", roll.Render())
	if redundancy != nil {
		fmt.Fprintf(w, "\nRedundancy groups (outage charged only when a whole span is down)\n%s",
			redundancy.Render())
	}
	if taxonomy {
		fmt.Fprintf(w, "\n%s", roll.RenderTaxonomy(duration))
		if redundancy != nil {
			fmt.Fprintf(w, "\n%s", redundancy.RenderPartitionCandidates(30))
		}
	}
}
