package main

import (
	"bytes"
	"fmt"
	"time"

	btpan "repro"
	"repro/internal/analysis"
	"repro/internal/scatternet"
	"repro/internal/sim"
)

// The metro workload: each unit is btpan's scatternet engine on a 64-piconet
// ring for one virtual day, streaming with the hierarchical roll-up, two
// piconet shards and exhaustive relay probes (about 5.9 M probe walks, close
// to the 1024-piconet rung's sampled 5.75 M). Why: it is the only workload
// with probe walks, the bridge overlay and the ScatternetFold roll-up, and
// the overlay's probe walks are its critical path while the piconet plane
// fills the other core.

// metroConfig is the metro unit's configuration.
func metroConfig(e *env) btpan.ScatternetConfig {
	return btpan.ScatternetConfig{
		CampaignConfig: btpan.CampaignConfig{Seed: e.seed, Duration: sim.Day,
			Scenario: btpan.ScenarioSIRAs, Streaming: true, Parallelism: 2},
		Piconets: e.size.metroPiconets, Topology: btpan.TopologyRing,
		ProbeSample: 1, Rollup: true,
	}
}

// renderMetro renders the metro report: the roll-up, then its taxonomy
// plane.
func renderMetro(roll *analysis.ScatternetRollup, duration sim.Time) []byte {
	return []byte(roll.Render() + roll.RenderTaxonomy(duration))
}

// metroSetups is how many scatternets a metro run builds and discards
// before its units, so that setup_s is a median over more than the two or
// three builds the units themselves make.
const metroSetups = 5

func runMetro(e *env) (*result, error) {
	cfg := metroConfig(e)
	r := newResult(e)
	loop := &unitLoop{e: e}
	var setups []float64
	build := func() (*scatternet.Campaign, error) {
		t := time.Now()
		camp, err := btpan.NewScatternetCampaign(cfg)
		setups = append(setups, time.Since(t).Seconds())
		return camp, err
	}
	for i := 0; i < metroSetups; i++ {
		if _, err := build(); err != nil {
			return nil, err
		}
	}
	items, walks := 0, 0
	err := loop.run(func(i int, traced bool) (float64, error) {
		camp, err := build()
		if err != nil {
			return 0, err
		}

		runID := e.tr.begin("metro.run", -1, i)
		t0 := time.Now()
		res, err := camp.Run()
		if err != nil {
			return 0, err
		}
		id := e.tr.begin("report.render", runID, i)
		report := renderMetro(res.Rollup, cfg.Duration)
		e.tr.end(id)
		wall := time.Since(t0).Seconds()
		e.tr.end(runID)

		_, _, items = res.Rollup.Agg.DataItems()
		walks = res.RelayDepth.Probes()
		r.attempted++
		checkAggregates(r, fmt.Sprintf("unit %d", i), res.Rollup.Agg)
		if i == 0 {
			r.report = report
			e.checkPinned(r, report)
		} else if !bytes.Equal(report, r.report) {
			r.fail("unit %d report differs from unit 0 (digest %s vs %s)", i, digest(report), digest(r.report))
		}
		return wall, nil
	})
	if err != nil {
		return nil, err
	}
	piconetDays := float64(cfg.Piconets) * cfg.Duration.Seconds() / sim.Day.Seconds()
	if err := loop.endToEnd(r, setups, float64(items), piconetDays); err != nil {
		return nil, err
	}
	if !e.traced {
		return r, nil
	}
	if err := loop.layerMetrics(r, float64(items)); err != nil {
		return nil, err
	}
	r.metrics["probe.walks"] = float64(walks)
	probeSeconds := r.metrics["cpu.probe"] / 100 * r.metrics["cpu.total_s"]
	r.addDetail("probe.ns_per_walk", ratio(probeSeconds*1e9, float64(walks)), "ns/walk")
	return r, nil
}
