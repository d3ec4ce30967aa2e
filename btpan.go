// Package btpan is the public API of the Bluetooth PAN failure-data
// reproduction (Cinque, Cotroneo, Russo — DSN 2006): it assembles the
// simulated testbeds, runs failure-data campaigns under the four recovery
// scenarios, and regenerates every table and figure of the paper's
// evaluation from the collected data.
//
// A minimal session:
//
//	res, err := btpan.RunCampaign(btpan.CampaignConfig{
//		Seed:     1,
//		Duration: 10 * btpan.Day,
//		Scenario: btpan.ScenarioSIRAs,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Table2().Render())
//
// The heavy lifting lives in the internal packages (simulation kernel,
// radio channel, Bluetooth stack layers, workload, coalescence, analysis);
// this package wires them together behind a small surface.
package btpan

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/analysis"
	"repro/internal/coalesce"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// Scenario selects the recovery regime of a campaign (Table 4 columns).
type Scenario = recovery.Scenario

// Recovery scenarios.
const (
	ScenarioRebootOnly   = recovery.ScenarioRebootOnly
	ScenarioSIRAs        = recovery.ScenarioSIRAs
	ScenarioSIRAsMasking = recovery.ScenarioSIRAsMasking
)

// Duration helpers re-exported for campaign configuration.
const (
	Hour = sim.Hour
	Day  = sim.Day
)

// CampaignConfig configures one two-testbed campaign.
type CampaignConfig struct {
	// Seed roots all randomness; equal seeds reproduce campaigns exactly.
	Seed uint64
	// Duration is the virtual observation window (the paper ran 18 months;
	// a few virtual days already give thousands of failures).
	Duration sim.Time
	// Scenario selects the recovery regime.
	Scenario Scenario
	// Parallelism is the scatternet's piconet shard count (see
	// ScatternetConfig); a two-testbed campaign always runs its testbeds
	// concurrently and ignores it.
	Parallelism int
	// Streaming drops the records once they are folded. Every campaign
	// streams: node logs drain every FlushEvery of virtual time into one
	// streaming aggregator that folds records into the running aggregates
	// behind Table 2/3/4, the figures and the §6 scalars, so every table
	// comes from the same fold on either setting. Without Streaming the
	// campaign also keeps every raw record, for the raw-record views
	// (AllReports, SensitivityCurve, and Evidence/EvidenceRadius at any
	// window and radius other than the fold's); with it those views are
	// unavailable and memory stays O(1) in campaign length.
	Streaming bool
	// FlushEvery is the virtual-time log drain cadence (default one
	// virtual hour). Shorter intervals bound pending memory tighter; the
	// aggregates do not depend on the cadence.
	FlushEvery sim.Time
}

// Validate reports configuration errors.
func (c CampaignConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("btpan: non-positive campaign duration")
	}
	if c.Scenario < ScenarioRebootOnly || c.Scenario > ScenarioSIRAsMasking {
		return fmt.Errorf("btpan: unknown scenario %d", c.Scenario)
	}
	if c.FlushEvery < 0 {
		return fmt.Errorf("btpan: negative streaming flush interval")
	}
	return nil
}

// ID is the campaign identity as the collection wire compares it: every
// agent, sink and merge of one campaign must agree on it.
func (c CampaignConfig) ID() collector.CampaignID {
	return collector.CampaignID{Seed: c.Seed, Duration: c.Duration, Scenario: int(c.Scenario)}
}

// CampaignResult bundles both testbeds' collected data: Agg holds the
// folded aggregates every table, figure and scalar is answered from, and
// Random/Realistic hold the light parts (names, durations, per-client
// counters) plus, when the campaign did not stream (Config.Streaming
// false), every raw record.
type CampaignResult struct {
	Config    CampaignConfig
	Random    *testbed.Results
	Realistic *testbed.Results
	Agg       *analysis.Aggregates
}

// RunCampaign builds both testbeds (random and realistic workloads, seven
// heterogeneous nodes each), runs them for the configured virtual duration
// with the mid-campaign hardware replacement, and returns the collected
// failure data.
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := testbed.NewCampaign(cfg.Seed, cfg.Scenario, nil)
	if err != nil {
		return nil, err
	}
	return runCampaign(cfg, c)
}

// runCampaign runs a built campaign through one Streamer and assembles the
// result from its aggregates; without cfg.Streaming the testbeds also keep
// their records.
func runCampaign(cfg CampaignConfig, c *testbed.Campaign) (*CampaignResult, error) {
	flush := cfg.FlushEvery
	if flush == 0 {
		flush = sim.Hour
	}
	s, err := analysis.NewStreamer(c.StreamSpec())
	if err != nil {
		return nil, err
	}
	c.KeepRecords = !cfg.Streaming
	rnd, real := c.RunStreaming(cfg.Duration, flush, s)
	res, err := ResultFromAggregates(cfg, s.Finalize(),
		map[string]map[string]*workload.Counters{"random": rnd.Counters, "realistic": real.Counters},
		map[string]sim.Time{"random": rnd.Duration, "realistic": real.Duration})
	if err != nil {
		return nil, err
	}
	res.Random, res.Realistic = rnd, real // the same light parts, plus any kept records
	return res, nil
}

// AllReports returns both testbeds' user reports (time-sorted per testbed).
// A streaming campaign keeps no records: the result is nil.
func (r *CampaignResult) AllReports() []core.UserReport {
	if r.Config.Streaming {
		return nil
	}
	return slices.Concat(r.Random.Reports(), r.Realistic.Reports())
}

// DataItems reports the dataset sizes: user reports, system entries, total
// (the paper collected 20,854 + 335,697 = 356,551 items over 18 months).
func (r *CampaignResult) DataItems() (userReports, systemEntries, total int) {
	return r.Agg.DataItems()
}

// Evidence returns the accumulated error-failure evidence of both testbeds
// at the given coalescence window and the default adjacency radius.
func (r *CampaignResult) Evidence(window sim.Time) *coalesce.Evidence {
	return r.EvidenceRadius(window, coalesce.RelateRadius)
}

// EvidenceRadius is Evidence with an explicit adjacency radius. The fold's
// own (window, radius) answers from the aggregates; any other pair reruns
// the merge-and-coalesce pipeline over the kept records — the only path
// that serves a radius wider than the window — so a streaming campaign
// returns nil for it.
func (r *CampaignResult) EvidenceRadius(window, radius sim.Time) *coalesce.Evidence {
	if window == r.Agg.Window && radius == r.Agg.Radius {
		return r.Agg.Evidence
	}
	if r.Config.Streaming {
		return nil
	}
	ev := coalesce.NewEvidence()
	for _, res := range []*testbed.Results{r.Random, r.Realistic} {
		analysis.BuildEvidenceWithRadius(ev, res.PerNodeReports, res.PerNodeEntries,
			res.NAPNode, window, radius)
	}
	return ev
}

// Table2 computes the error-failure relationship table at the paper's 330 s
// coalescence window.
func (r *CampaignResult) Table2() *analysis.Table2 { return r.Agg.Table2() }

// Table3 computes the SIRA effectiveness table from both testbeds.
func (r *CampaignResult) Table3() *analysis.Table3 { return r.Agg.Table3() }

// Dependability computes one Table 4 column from this campaign.
func (r *CampaignResult) Dependability() *analysis.Dependability {
	return r.Agg.Dependability(r.Config.Scenario.String())
}

// SensitivityCurve reproduces Figure 2's inset: tuple count versus
// coalescence window over both testbeds' merged logs, plus the knee. The
// sweep needs the raw event stream, so streaming campaigns return nil (run
// a short retained campaign for Figure 2 — the knee stabilizes within days).
func (r *CampaignResult) SensitivityCurve() (curve *stats.Curve, kneeSeconds float64) {
	if r.Config.Streaming {
		return nil, 0
	}
	events := coalesce.Merge(r.AllReports(), slices.Concat(r.Random.Entries(), r.Realistic.Entries()))
	curve = coalesce.Sensitivity(events, coalesce.DefaultWindows())
	knee, _ := curve.Knee()
	return curve, knee
}

// Fig3a computes the packet-loss-by-packet-type distribution (random WL).
func (r *CampaignResult) Fig3a() []analysis.Bar {
	return analysis.Fig3aPacketType(r.Random.Counters)
}

// Fig3c computes the packet-loss-by-application distribution (realistic WL).
func (r *CampaignResult) Fig3c() []analysis.Bar { return r.Agg.Fig3c() }

// Fig4 computes the per-host failure distribution. The paper's Figure 4
// uses the realistic workload over 18 months; compressed campaigns use both
// testbeds so the rare host-specific failure types (bind, switch-role
// command) accumulate enough occurrences to be visible (a documented
// reproduction assumption, see ARCHITECTURE.md).
func (r *CampaignResult) Fig4() []analysis.Fig4Row { return r.Agg.Fig4() }

// Taxonomy returns the phase/verdict failure split of the campaign.
func (r *CampaignResult) Taxonomy() *analysis.TaxonomyAccum { return r.Agg.Tax }

// Survival returns the node-uptime survival accumulator (Kaplan-Meier
// event/censor bins plus the failure-interarrival histogram).
func (r *CampaignResult) Survival() *analysis.SurvivalAccum { return r.Agg.Surv }

// countersMap merges both testbeds' per-client counters under prefixed keys.
func (r *CampaignResult) countersMap() map[string]*workload.Counters {
	counters := make(map[string]*workload.Counters)
	for k, v := range r.Realistic.Counters {
		counters["realistic/"+k] = v
	}
	for k, v := range r.Random.Counters {
		counters["random/"+k] = v
	}
	return counters
}

// Scalars computes the §6 scalar findings.
func (r *CampaignResult) Scalars() *analysis.Scalars {
	return r.Agg.Scalars(r.countersMap())
}

// Table4 runs the four scenario campaigns and assembles the dependability
// comparison. Each scenario observes the same virtual duration with its own
// derived seed, mirroring the paper's estimation of the four regimes from
// the same testbeds. The four campaigns are independent simulations and run
// concurrently; the column order (and every number in it) is the same as a
// sequential pass would produce.
func Table4(seed uint64, duration sim.Time) (*analysis.Table4, error) {
	scenarios := recovery.Scenarios()
	columns := make([]*analysis.Dependability, len(scenarios))
	errs := make([]error, len(scenarios))
	var wg sync.WaitGroup
	for i, sc := range scenarios {
		wg.Add(1)
		go func(i int, sc recovery.Scenario) {
			defer wg.Done()
			res, err := RunCampaign(CampaignConfig{
				Seed: seed, Duration: duration, Scenario: sc, Streaming: true,
			})
			if err != nil {
				errs[i] = err
				return
			}
			columns[i] = res.Dependability()
		}(i, sc)
	}
	wg.Wait()
	t4 := &analysis.Table4{}
	for i := range scenarios {
		if errs[i] != nil {
			return nil, errs[i]
		}
		t4.Columns = append(t4.Columns, columns[i])
	}
	return t4, nil
}

// RedundantPiconets evaluates the paper's closing recommendation for
// critical deployments — redundant, overlapped piconets on top of SIRAs and
// masking — by running two independent masked campaigns and composing their
// dependability into a 1-out-of-2 deployment with the given failover time.
func RedundantPiconets(seed uint64, duration sim.Time, failover sim.Time) (*analysis.RedundantDeployment, error) {
	var a, b *CampaignResult
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a, errA = RunCampaign(CampaignConfig{Seed: seed, Duration: duration,
			Scenario: ScenarioSIRAsMasking, Streaming: true})
	}()
	b, errB = RunCampaign(CampaignConfig{Seed: seed ^ 0x5EC0DB, Duration: duration,
		Scenario: ScenarioSIRAsMasking, Streaming: true})
	wg.Wait()
	if errA != nil {
		return nil, errA
	}
	if errB != nil {
		return nil, errB
	}
	return &analysis.RedundantDeployment{
		A:               a.Dependability(),
		B:               b.Dependability(),
		FailoverSeconds: failover.Seconds(),
	}, nil
}

// FixedExperimentConfig configures the Figure 3b special experiment.
type FixedExperimentConfig struct {
	Seed     uint64
	Duration sim.Time // the paper ran it for two months on Verde and Win
}

// RunFixedExperiment runs the fixed workload (N = 10000 packets,
// L_S = L_R = 1691 bytes) on Verde and Win and returns the packet-loss
// reports for the connection-age histogram.
func RunFixedExperiment(cfg FixedExperimentConfig) (*testbed.Results, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("btpan: non-positive experiment duration")
	}
	tb, err := testbed.New(testbed.Options{
		Name: "fixed", Seed: cfg.Seed ^ 0x66697865, Kind: core.WLFixed,
		Scenario: ScenarioSIRAs, Nodes: []string{"Verde", "Win"},
	})
	if err != nil {
		return nil, err
	}
	tb.Run(cfg.Duration)
	return tb.Results(), nil
}

// Fig3b histograms the fixed experiment's packet losses by connection age
// (packets sent before the loss).
func Fig3b(res *testbed.Results, binWidth, bins int) []analysis.Bar {
	return analysis.Fig3bConnectionAge(res.Reports(), binWidth, bins)
}
