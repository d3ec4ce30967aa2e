package scatternet

import (
	"fmt"

	"repro/internal/analysis"
)

// The distributed metro entry points: a scatternet agent process owns a
// contiguous piconet range of a campaign (and, by convention, the bridge
// overlay when its range starts at piconet 0) and streams each finished
// piconet's fold contribution to a district sink. Piconet worlds are fully
// independent and deterministic in (Seed, p), so the agent needs no
// write-ahead log: a kill -9 restart simply re-runs the piconets past the
// sink's resume cursor and regenerates byte-identical partials.

// PiconetPartial builds, runs and snapshots piconet p alone — one shard
// iteration of runShard, detached from the shard loop so a distributed agent
// can walk its range one piconet at a time and ship each result as it
// finishes. Requires Rollup mode (the partial carries the depend trace the
// metro fold re-interleaves).
func (c *Campaign) PiconetPartial(p int) (*analysis.PiconetPartial, error) {
	if !c.cfg.Rollup {
		return nil, fmt.Errorf("scatternet: piconet partials need Rollup mode")
	}
	if p < 0 || p >= c.topo.Piconets {
		return nil, fmt.Errorf("scatternet: piconet %d outside [0, %d)", p, c.topo.Piconets)
	}
	pic, trace, err := c.runPiconet(p)
	if err != nil {
		return nil, err
	}
	return &analysis.PiconetPartial{Piconet: p, Agg: pic.Agg.Snapshot(), Trace: trace}, nil
}

// RunOverlay runs the bridge overlay world for the campaign duration and
// returns its rollup partial (nil when the campaign has no bridges). The
// order-sensitive Welford merges happen HERE, where the campaign's fixed
// orders are known: the partial snapshots overlaySummary, exactly what
// Campaign.rollup reports, which is what keeps the distributed report
// byte-identical to the single-process one.
func (c *Campaign) RunOverlay() (*analysis.OverlayPartial, error) {
	if !c.cfg.Rollup {
		return nil, fmt.Errorf("scatternet: overlay partials need Rollup mode")
	}
	if c.overlay == nil {
		return nil, nil
	}
	c.overlay.Run(c.cfg.Duration)
	bridges, count, depth := c.overlaySummary()
	out := &analysis.OverlayPartial{BridgeCount: count, RelayDepth: depth.Snapshot(),
		Redundancy: c.overlay.RedundancyTable(c.cfg.Duration).Rows}
	if bridges != nil {
		out.Bridges = bridges.Snapshot()
	}
	return out, nil
}

// Piconets reports the campaign's effective piconet count.
func (c *Campaign) Piconets() int { return c.topo.Piconets }

// BridgeCount reports the campaign's effective bridge count (0 = no overlay).
func (c *Campaign) BridgeCount() int { return c.topo.Bridges() }

// ScenarioName reports the campaign's recovery-scenario label (the
// Dependability column name district folds are built with).
func (c *Campaign) ScenarioName() string { return c.cfg.Scenario.String() }
