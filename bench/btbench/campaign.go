package main

import (
	"bytes"
	"fmt"
	"time"

	btpan "repro"
	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// The campaign workload: each unit is one SIRAs-scenario two-testbed
// campaign on the streaming plane with one-hour drains, the chain
// btpan.RunCampaign runs (testbed.NewCampaign, Campaign.RunStreaming into an
// analysis.Streamer, Finalize, btpan.ResultFromAggregates and WriteReport),
// with the drains passing through a spanIngestor. Why: the simulation plane
// does almost all of the work and no codec, WAL, sink or probe work happens;
// the random testbed executes about twice the realistic one's kernel events,
// so it sets the wall time.

// campaignConfig is the campaign unit's configuration.
func campaignConfig(e *env) btpan.CampaignConfig {
	return btpan.CampaignConfig{Seed: e.seed, Duration: sim.Time(e.size.campaignDays) * sim.Day,
		Scenario: btpan.ScenarioSIRAs, Streaming: true, FlushEvery: sim.Hour}
}

// streamed is one streaming campaign's outcome.
type streamed struct {
	report            []byte
	agg               *analysis.Aggregates
	random, realistic *testbed.Results
}

// streamCampaign runs a built campaign on the streaming plane, its drains
// going through ing into str, and renders the report exactly as
// btpan.RunCampaign followed by btpan.WriteReport does.
func streamCampaign(cfg btpan.CampaignConfig, camp *testbed.Campaign, str *analysis.Streamer,
	ing testbed.Ingestor, tr *tracer, parent, round int) (*streamed, error) {
	rnd, real := camp.RunStreaming(cfg.Duration, cfg.FlushEvery, ing)
	agg := str.Finalize()
	res, err := btpan.ResultFromAggregates(cfg, agg,
		map[string]map[string]*workload.Counters{"random": rnd.Counters, "realistic": real.Counters},
		map[string]sim.Time{"random": rnd.Duration, "realistic": real.Duration})
	if err != nil {
		return nil, err
	}
	id := tr.begin("report.render", parent, round)
	var buf bytes.Buffer
	btpan.WriteReport(&buf, res)
	tr.end(id)
	return &streamed{report: buf.Bytes(), agg: agg, random: rnd, realistic: real}, nil
}

// checkAggregates fails the run when the fold lost or could not order data.
func checkAggregates(r *result, what string, agg *analysis.Aggregates) {
	if agg.SeqGaps != 0 || agg.DroppedRecords != 0 {
		r.fail("%s: %d sequence gaps, %d dropped records", what, agg.SeqGaps, agg.DroppedRecords)
	}
}

func runCampaign(e *env) (*result, error) {
	cfg := campaignConfig(e)
	r := newResult(e)
	loop := &unitLoop{e: e}
	var setups, imbalance, simRun []float64
	var counts simCounts
	var recorded *corpus
	items := 0
	err := loop.run(func(i int, traced bool) (float64, error) {
		t := time.Now()
		camp, err := testbed.NewCampaign(cfg.Seed, cfg.Scenario, nil)
		if err != nil {
			return 0, err
		}
		str, err := analysis.NewStreamer(camp.StreamSpec())
		if err != nil {
			return 0, err
		}
		setups = append(setups, time.Since(t).Seconds())

		runID := e.tr.begin("campaign.run", -1, i)
		ing := newSpanIngestor(str, e.tr, runID, i, traced)
		t0 := time.Now()
		out, err := streamCampaign(cfg, camp, str, ing, e.tr, runID, i)
		wall := time.Since(t0).Seconds()
		runStart, _ := e.tr.end(runID)
		if err != nil {
			return 0, err
		}
		_, _, items = out.agg.DataItems()
		r.attempted++
		checkAggregates(r, fmt.Sprintf("unit %d", i), out.agg)
		if i == 0 {
			r.report = out.report
			e.checkPinned(r, out.report)
		} else if !bytes.Equal(out.report, r.report) {
			r.fail("unit %d report differs from unit 0 (digest %s vs %s)", i, digest(out.report), digest(r.report))
		}
		if traced {
			counts = countSim(camp)
			// A testbed's run spans from the campaign start to its last
			// drain; its simulation self time excludes the drains.
			runNs := make(map[string]int64)
			var self int64
			for _, tb := range []string{"random", "realistic"} {
				e.tr.add(span{Name: "testbed." + tb, Start: runStart, End: ing.lastEnd[tb], Parent: runID, Round: i})
				runNs[tb] = ing.lastEnd[tb] - runStart
				self += runNs[tb] - ing.busy[tb]
			}
			imbalance = append(imbalance, ratio(float64(runNs["random"]), float64(runNs["realistic"])))
			simRun = append(simRun, float64(self)/1e9)
			recorded = newCorpus(camp.StreamSpec(), ing.drains)
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	if err := loop.endToEnd(r, setups, float64(items), float64(e.size.campaignDays)); err != nil {
		return nil, err
	}

	// The retained plane is the reference implementation the streaming fold
	// must match digit for digit.
	retainedCfg := cfg
	retainedCfg.Streaming = false
	ret, err := btpan.RunCampaign(retainedCfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	btpan.WriteReport(&buf, ret)
	r.attempted++
	if !bytes.Equal(buf.Bytes(), r.report) {
		r.fail("streaming report differs from the retained plane's (digest %s vs %s)",
			digest(r.report), digest(buf.Bytes()))
	}

	if !e.traced {
		return r, nil
	}
	if err := loop.layerMetrics(r, float64(items)); err != nil {
		return nil, err
	}
	counts.set(r)
	r.metrics["sim.imbalance"] = median(imbalance)
	if err := recorded.foldCost(r); err != nil {
		return nil, err
	}
	ingest := e.tr.durations("fold.ingest")
	r.addDetail("sim.run_s", median(simRun), "s")
	r.addDetail("sim.ns_per_event", ratio(median(simRun)*1e9, counts.events), "ns/event")
	r.addDetail("fold.ingest_us_p50", quantile(ingest, 0.5)*1e6, "us")
	r.addDetail("fold.ingest_us_p99", quantile(ingest, 0.99)*1e6, "us")
	return r, nil
}
