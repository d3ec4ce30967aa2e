package btpan

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SweepConfig configures a multi-seed campaign sweep: N independent
// campaigns of the same duration and scenario, seeds BaseSeed..BaseSeed+N-1,
// run on a bounded worker pool. Per-seed campaigns stream by default, so a
// sweep's memory is O(workers), not O(seeds x duration), and every table
// comes back as mean ± 95 % confidence interval over the seeds.
type SweepConfig struct {
	// BaseSeed roots the sweep; seed i of N is BaseSeed + i.
	BaseSeed uint64
	// Seeds is the number of independent campaigns (>= 1).
	Seeds int
	// Duration is the virtual observation window per campaign.
	Duration sim.Time
	// Scenario selects the recovery regime for every campaign.
	Scenario Scenario
	// Workers bounds the campaign-level worker pool (each campaign runs
	// its two testbeds on goroutines of its own). 0 means NumCPU/2, at
	// least 1.
	Workers int
	// FlushEvery is the streaming drain cadence (default one virtual
	// hour).
	FlushEvery sim.Time
	// CheckpointDir, when set, persists every completed seed's aggregates
	// (plus counters) as one JSON file in the directory and skips seeds
	// whose file already exists on a later run — an interrupted month-scale
	// sweep resumes instead of restarting, with CI tables bit-identical to
	// an uninterrupted sweep (the restored seeds answer through the same
	// aggregate code paths). Files carry the collector's torn-write guard
	// trailer: a sweep killed mid-write leaves a detectably-torn file that
	// the next run rejects in favor of the rotated previous copy (or simply
	// recomputes the seed). Non-scatternet sweeps only.
	CheckpointDir string
	// Piconets/Bridges/Topology/Redundancy/HoldTime switch the sweep to
	// scatternet campaigns: when any of them is set, every seed runs a
	// scatternet of that topology instead of a single-piconet campaign
	// (Piconets: 1, Bridges: 0 is the degenerate scatternet, bit-identical
	// to a classic sweep per seed). Runs then holds each seed's piconet-0
	// result (so every CI method keeps answering for the classic campaign
	// view) and Scatternets the full per-seed results for the per-piconet,
	// bridge-coupling, relay-depth and redundancy CIs. Topology and
	// Redundancy carry ScatternetConfig's semantics (built-in generator
	// name; K bridges per span).
	Piconets   int
	Bridges    int
	Topology   string
	Redundancy int
	HoldTime   sim.Time

	// randomMembers pins the materialized random membership map for the
	// whole sweep (set once by Sweep via materializeTopology): without it,
	// every seed's worker would regenerate — and re-validate — the same
	// RandomConnected graph inside the hot loop.
	randomMembers [][]int
}

// Scatternet reports whether the sweep runs scatternet campaigns (any
// explicit topology engages the scatternet path, so a 1-piconet request
// still populates Scatternets and the per-piconet CIs).
func (c SweepConfig) Scatternet() bool {
	return c.Piconets > 0 || c.Bridges > 0 || c.Topology != "" || c.Redundancy > 1
}

// scatternetConfig builds seed i's scatternet campaign config. A random
// topology is materialized once from the base seed and shared by every seed,
// so the sweep's CIs measure seed-to-seed variation of one graph rather than
// topology churn.
func (c SweepConfig) scatternetConfig(i int) ScatternetConfig {
	sc := ScatternetConfig{
		CampaignConfig: CampaignConfig{
			Seed:       c.BaseSeed + uint64(i),
			Duration:   c.Duration,
			Scenario:   c.Scenario,
			Streaming:  true,
			FlushEvery: c.FlushEvery,
		},
		Piconets:   c.Piconets,
		Bridges:    c.Bridges,
		Topology:   c.Topology,
		Redundancy: c.Redundancy,
		HoldTime:   c.HoldTime,
	}
	if c.randomMembers != nil {
		// topology() already applied the redundancy replication.
		sc.Members, sc.Topology, sc.Redundancy = c.randomMembers, "", 0
	}
	return sc
}

// materializeTopology resolves the shared random membership map once per
// sweep, from the base seed, so the per-seed workers reuse it instead of
// regenerating and re-validating the same graph in the hot loop (the CIs
// measure seed-to-seed variation of one graph either way — this only moves
// the generation out of the per-seed path). Non-random sweeps pass through
// unchanged.
func (c SweepConfig) materializeTopology() SweepConfig {
	if c.Topology != TopologyRandom || c.randomMembers != nil {
		return c
	}
	base := ScatternetConfig{
		CampaignConfig: CampaignConfig{Seed: c.BaseSeed, Duration: c.Duration, Scenario: c.Scenario},
		Piconets:       c.Piconets,
		Bridges:        c.Bridges,
		Topology:       c.Topology,
		Redundancy:     c.Redundancy,
	}
	if topo, err := base.topology(); err == nil {
		c.randomMembers = topo.Members
	}
	return c
}

// Validate reports configuration errors.
func (c SweepConfig) Validate() error {
	if c.Seeds < 1 {
		return fmt.Errorf("btpan: sweep needs at least one seed")
	}
	if c.Workers < 0 {
		return fmt.Errorf("btpan: negative sweep worker count")
	}
	if c.CheckpointDir != "" && c.Scatternet() {
		return fmt.Errorf("btpan: sweep checkpointing is not supported for scatternet sweeps")
	}
	if c.Scatternet() {
		return c.scatternetConfig(0).Validate()
	}
	probe := CampaignConfig{Seed: c.BaseSeed, Duration: c.Duration,
		Scenario: c.Scenario, FlushEvery: c.FlushEvery}
	return probe.Validate()
}

// SweepResult holds the per-seed campaigns, in seed order. In scatternet
// sweeps Runs holds each seed's piconet-0 result and Scatternets the full
// topology results.
type SweepResult struct {
	Config SweepConfig
	Runs   []*CampaignResult
	// Scatternets is non-nil only for scatternet sweeps (Config.Scatternet).
	Scatternets []*ScatternetResult
}

// Sweep runs the multi-seed campaign sweep. Results are deterministic for a
// given config: seed i always computes the same campaign no matter which
// worker runs it or in what order seeds finish.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	cfg = cfg.materializeTopology()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.NumCPU() / 2
	}
	if workers < 1 {
		workers = 1
	}
	if workers > cfg.Seeds {
		workers = cfg.Seeds
	}
	runs := make([]*CampaignResult, cfg.Seeds)
	var scatternets []*ScatternetResult
	if cfg.Scatternet() {
		scatternets = make([]*ScatternetResult, cfg.Seeds)
	}
	errs := make([]error, cfg.Seeds)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if cfg.Scatternet() {
					var res *ScatternetResult
					res, errs[i] = RunScatternet(cfg.scatternetConfig(i))
					if errs[i] == nil {
						scatternets[i] = res
						runs[i] = res.Piconets[0]
					}
					continue
				}
				ccfg := CampaignConfig{
					Seed:       cfg.BaseSeed + uint64(i),
					Duration:   cfg.Duration,
					Scenario:   cfg.Scenario,
					Streaming:  true,
					FlushEvery: cfg.FlushEvery,
				}
				if cfg.CheckpointDir != "" {
					if res, err := loadSeedCheckpoint(cfg.CheckpointDir, ccfg); err != nil {
						errs[i] = err
						continue
					} else if res != nil {
						runs[i] = res
						continue
					}
				}
				runs[i], errs[i] = RunCampaign(ccfg)
				if errs[i] == nil && cfg.CheckpointDir != "" {
					errs[i] = saveSeedCheckpoint(cfg.CheckpointDir, runs[i])
				}
			}
		}()
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &SweepResult{Config: cfg, Runs: runs, Scatternets: scatternets}, nil
}

// Table2CI summarizes the sweep's error-failure relationship tables.
func (s *SweepResult) Table2CI() *analysis.Table2CI {
	tables := make([]*analysis.Table2, len(s.Runs))
	for i, r := range s.Runs {
		tables[i] = r.Table2()
	}
	return analysis.BuildTable2CI(tables)
}

// Table3CI summarizes the sweep's SIRA effectiveness tables.
func (s *SweepResult) Table3CI() *analysis.Table3CI {
	tables := make([]*analysis.Table3, len(s.Runs))
	for i, r := range s.Runs {
		tables[i] = r.Table3()
	}
	return analysis.BuildTable3CI(tables)
}

// DependabilityCI summarizes the sweep's Table 4 column (the configured
// scenario).
func (s *SweepResult) DependabilityCI() *analysis.DependabilityCI {
	cols := make([]*analysis.Dependability, len(s.Runs))
	for i, r := range s.Runs {
		cols[i] = r.Dependability()
	}
	return analysis.BuildDependabilityCI(cols)
}

// ScalarsCI summarizes the sweep's §6 scalar findings.
func (s *SweepResult) ScalarsCI() *analysis.ScalarsCI {
	all := make([]*analysis.Scalars, len(s.Runs))
	for i, r := range s.Runs {
		all[i] = r.Scalars()
	}
	return analysis.BuildScalarsCI(all)
}

// TaxonomyCI summarizes the sweep's taxonomy/survival plane: per-phase
// failure counts, the dynamic-availability share and the mean failure
// interarrival as mean ± 95 % CI over the seeds.
func (s *SweepResult) TaxonomyCI() *analysis.TaxonomyCI {
	taxes := make([]*analysis.TaxonomyAccum, len(s.Runs))
	survs := make([]*analysis.SurvivalAccum, len(s.Runs))
	for i, r := range s.Runs {
		taxes[i] = r.Taxonomy()
		survs[i] = r.Survival()
	}
	return analysis.BuildTaxonomyCI(taxes, survs)
}

// PiconetDependabilityCI summarizes piconet p's Table 4 column over the
// seeds of a scatternet sweep (nil when the sweep was not a scatternet or p
// is out of range).
func (s *SweepResult) PiconetDependabilityCI(p int) *analysis.DependabilityCI {
	if s.Scatternets == nil {
		return nil
	}
	cols := make([]*analysis.Dependability, 0, len(s.Scatternets))
	for _, r := range s.Scatternets {
		if p < 0 || p >= len(r.Piconets) {
			return nil
		}
		cols = append(cols, r.Piconets[p].Dependability())
	}
	return analysis.BuildDependabilityCI(cols)
}

// CorrelatedOutagesCI estimates the per-seed count of correlated
// piconet-level outages bridge failures caused (zero estimate when the
// sweep was not a scatternet).
func (s *SweepResult) CorrelatedOutagesCI() stats.Estimate {
	xs := make([]float64, 0, len(s.Scatternets))
	for _, r := range s.Scatternets {
		xs = append(xs, float64(r.Bridges.CorrelatedOutages()))
	}
	return stats.CI95(xs)
}

// BridgeDowntimeCI estimates the per-seed total bridge downtime in seconds
// (zero estimate when the sweep was not a scatternet).
func (s *SweepResult) BridgeDowntimeCI() stats.Estimate {
	xs := make([]float64, 0, len(s.Scatternets))
	for _, r := range s.Scatternets {
		xs = append(xs, r.Bridges.TotalDowntimeSeconds())
	}
	return stats.CI95(xs)
}

// RelayDepthCI summarizes the sweep's delay-vs-relay-depth tables: per-depth
// probe counts and mean store-and-forward delays as mean ± 95 % CI over the
// seeds (nil when the sweep was not a scatternet).
func (s *SweepResult) RelayDepthCI() *analysis.RelayDepthCI {
	if s.Scatternets == nil {
		return nil
	}
	accs := make([]*analysis.RelayDepthAccum, len(s.Scatternets))
	for i, r := range s.Scatternets {
		accs[i] = r.RelayDepth
	}
	return analysis.BuildRelayDepthCI(accs)
}

// RedundancyCI summarizes the sweep's redundancy tables: per-seed member
// outages, all-down episodes and all-down seconds as mean ± 95 % CI (nil
// when the sweep was not a scatternet).
func (s *SweepResult) RedundancyCI() *analysis.RedundancyCI {
	if s.Scatternets == nil {
		return nil
	}
	tables := make([]*analysis.RedundancyTable, len(s.Scatternets))
	for i, r := range s.Scatternets {
		tables[i] = r.Redundancy
	}
	return analysis.BuildRedundancyCI(tables)
}
