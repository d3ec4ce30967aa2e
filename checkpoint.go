package btpan

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Sweep checkpointing: every completed seed of a streaming sweep persists
// its folded aggregates and per-client counters as one JSON file, and a
// re-run of the same sweep configuration loads those files instead of
// recomputing the seeds — interrupted month-scale sweeps resume where they
// stopped. The files carry the campaign configuration as a guard so a stale
// directory cannot silently contaminate a different sweep, plus the
// collector's torn-write trailer (collector.WriteFileDurable) so a sweep
// process killed mid-write leaves a detectably-torn file — which load
// rejects in favor of the previous good copy — rather than a silently
// half-loaded seed.

// seedCheckpoint is one completed seed's persisted campaign.
type seedCheckpoint struct {
	Seed     uint64   `json:"seed"`
	Duration sim.Time `json:"duration"`
	Scenario int      `json:"scenario"`

	Agg       *analysis.AggregatesSnapshot                     `json:"agg"`
	Counters  map[string]map[string]*workload.CountersSnapshot `json:"counters"`
	Durations map[string]sim.Time                              `json:"durations"`
}

// seedCheckpointPath names a seed's checkpoint file.
func seedCheckpointPath(dir string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

// saveSeedCheckpoint persists one completed campaign's aggregates atomically.
func saveSeedCheckpoint(dir string, res *CampaignResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cp := seedCheckpoint{
		Seed:     res.Config.Seed,
		Duration: res.Config.Duration,
		Scenario: int(res.Config.Scenario),
		Agg:      res.Agg.Snapshot(),
		Counters: map[string]map[string]*workload.CountersSnapshot{
			"random": {}, "realistic": {},
		},
		Durations: map[string]sim.Time{
			"random": res.Random.Duration, "realistic": res.Realistic.Duration,
		},
	}
	for node, c := range res.Random.Counters {
		cp.Counters["random"][node] = c.Snapshot()
	}
	for node, c := range res.Realistic.Counters {
		cp.Counters["realistic"][node] = c.Snapshot()
	}
	blob, err := json.Marshal(&cp)
	if err != nil {
		return err
	}
	return collector.WriteFileDurable(seedCheckpointPath(dir, res.Config.Seed), blob)
}

// loadSeedCheckpoint restores one seed's campaign if its checkpoint file
// exists. A missing file returns (nil, nil) — run the seed; a file from a
// different configuration is an error, never a silent substitute.
func loadSeedCheckpoint(dir string, cfg CampaignConfig) (*CampaignResult, error) {
	path := seedCheckpointPath(dir, cfg.Seed)
	blob, err := collector.ReadFileDurable(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cp seedCheckpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return nil, fmt.Errorf("btpan: corrupt sweep checkpoint %s: %w", path, err)
	}
	if cp.Seed != cfg.Seed || cp.Duration != cfg.Duration || cp.Scenario != int(cfg.Scenario) {
		return nil, fmt.Errorf("btpan: sweep checkpoint %s is from a different campaign "+
			"(seed %d, %v, scenario %d; want seed %d, %v, scenario %d)",
			path, cp.Seed, cp.Duration, cp.Scenario, cfg.Seed, cfg.Duration, int(cfg.Scenario))
	}
	agg, err := analysis.RestoreAggregates(cp.Agg)
	if err != nil {
		return nil, fmt.Errorf("btpan: sweep checkpoint %s: %w", path, err)
	}
	counters := make(map[string]map[string]*workload.Counters, len(cp.Counters))
	for tb, m := range cp.Counters {
		counters[tb] = make(map[string]*workload.Counters, len(m))
		for node, snap := range m {
			c, err := workload.RestoreCounters(snap)
			if err != nil {
				return nil, fmt.Errorf("btpan: sweep checkpoint %s: %w", path, err)
			}
			counters[tb][node] = c
		}
	}
	return ResultFromAggregates(cfg, agg, counters, cp.Durations)
}
