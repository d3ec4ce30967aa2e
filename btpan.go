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
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/coalesce"
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
	// Parallelism controls campaign orchestration: 0 (default) runs the
	// two testbeds on separate goroutines (each owns its kernel and RNG,
	// so results are identical to sequential execution for a given seed);
	// 1 forces a single goroutine. Values above 1 behave like 0 — a
	// campaign has exactly two independent simulations to overlap.
	Parallelism int
	// Streaming selects the O(1)-memory aggregation plane: node logs are
	// drained every FlushEvery of virtual time into a streaming aggregator
	// that folds records into the running aggregates behind Table 2/3/4,
	// the figures and the §6 scalars, instead of retaining every record.
	// The resulting tables are bit-identical to a retained run of the same
	// seed (see TestStreamingEquivalence); raw-record views (AllReports,
	// Evidence, SensitivityCurve) are unavailable in this mode.
	Streaming bool
	// FlushEvery is the virtual-time log drain cadence in streaming mode
	// (default one virtual hour). Shorter intervals bound pending memory
	// tighter; the aggregates do not depend on the cadence.
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

// CampaignResult bundles both testbeds' collected data. In retained mode
// Random/Realistic hold every record; in streaming mode they hold only the
// light parts (names, durations, per-client counters) and Agg holds the
// folded aggregates.
type CampaignResult struct {
	Config    CampaignConfig
	Random    *testbed.Results
	Realistic *testbed.Results
	// Agg is the streaming aggregation state (nil in retained mode).
	Agg *analysis.Aggregates
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
	var randomRes, realisticRes *testbed.Results
	var agg *analysis.Aggregates
	if cfg.Streaming {
		flush := cfg.FlushEvery
		if flush == 0 {
			flush = sim.Hour
		}
		s, err := analysis.NewStreamer(c.StreamSpec())
		if err != nil {
			return nil, err
		}
		if cfg.Parallelism == 1 {
			randomRes, realisticRes = c.RunStreamingSequential(cfg.Duration, flush, s)
		} else {
			randomRes, realisticRes = c.RunStreaming(cfg.Duration, flush, s)
		}
		agg = s.Finalize()
	} else if cfg.Parallelism == 1 {
		randomRes, realisticRes = c.RunSequential(cfg.Duration)
	} else {
		randomRes, realisticRes = c.Run(cfg.Duration)
	}
	return &CampaignResult{Config: cfg, Random: randomRes, Realistic: realisticRes, Agg: agg}, nil
}

// AllReports returns both testbeds' user reports (time-sorted per testbed).
// Streaming campaigns do not retain records: the result is nil.
func (r *CampaignResult) AllReports() []core.UserReport {
	if r.Agg != nil {
		return nil
	}
	out := make([]core.UserReport, 0, len(r.Random.Reports)+len(r.Realistic.Reports))
	out = append(out, r.Random.Reports...)
	out = append(out, r.Realistic.Reports...)
	return out
}

// DataItems reports the dataset sizes: user reports, system entries, total
// (the paper collected 20,854 + 335,697 = 356,551 items over 18 months).
func (r *CampaignResult) DataItems() (userReports, systemEntries, total int) {
	if r.Agg != nil {
		return r.Agg.DataItems()
	}
	u := len(r.Random.Reports) + len(r.Realistic.Reports)
	s := len(r.Random.Entries) + len(r.Realistic.Entries)
	return u, s, u + s
}

// Evidence runs the merge-and-coalesce pipeline over both testbeds with the
// given window and returns the accumulated error-failure evidence. A
// streaming campaign folds evidence at its configured window/radius as
// records arrive, so it can only answer for those parameters: any other
// window returns nil — rerun retained for window/radius ablations (the
// sensitivity sweep needs raw events anyway).
func (r *CampaignResult) Evidence(window sim.Time) *coalesce.Evidence {
	if r.Agg != nil {
		if window == r.Agg.Window {
			return r.Agg.Evidence
		}
		return nil
	}
	return r.EvidenceRadius(window, coalesce.RelateRadius)
}

// EvidenceRadius is Evidence with an explicit adjacency radius. Streaming
// campaigns answer only for their configured (window, radius) and return
// nil otherwise.
func (r *CampaignResult) EvidenceRadius(window, radius sim.Time) *coalesce.Evidence {
	if r.Agg != nil {
		if window == r.Agg.Window && radius == r.Agg.Radius {
			return r.Agg.Evidence
		}
		return nil
	}
	ev := coalesce.NewEvidence()
	analysis.BuildEvidenceWithRadius(ev, r.Random.PerNodeReports, r.Random.PerNodeEntries,
		r.Random.NAPNode, window, radius)
	analysis.BuildEvidenceWithRadius(ev, r.Realistic.PerNodeReports, r.Realistic.PerNodeEntries,
		r.Realistic.NAPNode, window, radius)
	return ev
}

// Table2 computes the error-failure relationship table at the paper's 330 s
// coalescence window.
func (r *CampaignResult) Table2() *analysis.Table2 {
	if r.Agg != nil {
		return r.Agg.Table2()
	}
	return analysis.BuildTable2(r.Evidence(coalesce.PaperWindow))
}

// Table3 computes the SIRA effectiveness table from both testbeds.
func (r *CampaignResult) Table3() *analysis.Table3 {
	if r.Agg != nil {
		return r.Agg.Table3()
	}
	return analysis.BuildTable3(r.AllReports())
}

// Dependability computes one Table 4 column from this campaign.
func (r *CampaignResult) Dependability() *analysis.Dependability {
	if r.Agg != nil {
		return r.Agg.Dependability(r.Config.Scenario.String())
	}
	return analysis.BuildDependability(r.Config.Scenario.String(), r.AllReports(),
		r.Config.Duration)
}

// SensitivityCurve reproduces Figure 2's inset: tuple count versus
// coalescence window over both testbeds' merged logs, plus the knee. The
// sweep needs the raw event stream, so streaming campaigns return nil (run
// a short retained campaign for Figure 2 — the knee stabilizes within days).
func (r *CampaignResult) SensitivityCurve() (curve *stats.Curve, kneeSeconds float64) {
	if r.Agg != nil {
		return nil, 0
	}
	events := rebuildEvents(r)
	curve = coalesce.Sensitivity(events, coalesce.DefaultWindows())
	knee, _ := curve.Knee()
	return curve, knee
}

// rebuildEvents merges every node's streams into one time-ordered sequence.
func rebuildEvents(r *CampaignResult) []coalesce.Event {
	var reports []core.UserReport
	var entries []core.SystemEntry
	for _, res := range []*testbed.Results{r.Random, r.Realistic} {
		reports = append(reports, res.Reports...)
		entries = append(entries, res.Entries...)
	}
	return coalesce.Merge(reports, entries)
}

// Fig3a computes the packet-loss-by-packet-type distribution (random WL).
func (r *CampaignResult) Fig3a() []analysis.Bar {
	return analysis.Fig3aPacketType(r.Random.Counters)
}

// Fig3c computes the packet-loss-by-application distribution (realistic WL).
func (r *CampaignResult) Fig3c() []analysis.Bar {
	if r.Agg != nil {
		return r.Agg.Fig3c()
	}
	return analysis.Fig3cApplications(r.Realistic.Reports)
}

// Fig4 computes the per-host failure distribution. The paper's Figure 4
// uses the realistic workload over 18 months; compressed campaigns use both
// testbeds so the rare host-specific failure types (bind, switch-role
// command) accumulate enough occurrences to be visible (a documented
// reproduction assumption, see ARCHITECTURE.md).
func (r *CampaignResult) Fig4() []analysis.Fig4Row {
	if r.Agg != nil {
		return r.Agg.Fig4()
	}
	return analysis.Fig4PerHost(r.AllReports())
}

// retainedTaxonomy folds the retained records into fresh taxonomy and
// survival accumulators, registering the same node roster the streaming
// plane declares up front (every PANU test log, sorted for determinism).
// Per-node record order matches the fold order — each testbed's Reports
// are time-sorted and the accumulators are insensitive to cross-node
// interleaving — so the result is bit-identical to the streamed one.
func (r *CampaignResult) retainedTaxonomy() (*analysis.TaxonomyAccum, *analysis.SurvivalAccum) {
	tax := analysis.NewTaxonomyAccum()
	surv := analysis.NewSurvivalAccum()
	for _, res := range []*testbed.Results{r.Random, r.Realistic} {
		nodes := make([]string, 0, len(res.PerNodeReports))
		for node := range res.PerNodeReports {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		for _, node := range nodes {
			tax.Nodes++
			surv.Observe(res.Name, node)
		}
		for i := range res.Reports {
			rep := &res.Reports[i]
			tax.Add(rep)
			surv.Add(rep.Testbed, rep.Node, rep)
		}
	}
	return tax, surv
}

// Taxonomy returns the phase/verdict failure split of the campaign.
// Streaming campaigns answer from the folded accumulator; retained
// campaigns fold the retained records on demand. Both planes yield
// bit-identical accumulators for the same seed.
func (r *CampaignResult) Taxonomy() *analysis.TaxonomyAccum {
	if r.Agg != nil {
		return r.Agg.Tax
	}
	tax, _ := r.retainedTaxonomy()
	return tax
}

// Survival returns the node-uptime survival accumulator (Kaplan-Meier
// event/censor bins plus the failure-interarrival histogram), on either
// aggregation plane.
func (r *CampaignResult) Survival() *analysis.SurvivalAccum {
	if r.Agg != nil {
		return r.Agg.Surv
	}
	_, surv := r.retainedTaxonomy()
	return surv
}

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
	counters := r.countersMap()
	if r.Agg != nil {
		return r.Agg.Scalars(counters)
	}
	_, sys, _ := r.DataItems()
	return analysis.BuildScalars(r.Random.Reports, r.Realistic.Reports, counters, sys)
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
				Seed: seed, Duration: duration, Scenario: sc,
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
		a, errA = RunCampaign(CampaignConfig{Seed: seed, Duration: duration, Scenario: ScenarioSIRAsMasking})
	}()
	b, errB = RunCampaign(CampaignConfig{Seed: seed ^ 0x5EC0DB, Duration: duration, Scenario: ScenarioSIRAsMasking})
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
	return analysis.Fig3bConnectionAge(res.Reports, binWidth, bins)
}
