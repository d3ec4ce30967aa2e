// Command btcampaign runs failure-data collection campaigns on the
// simulated testbeds — the paper's single-piconet pair by default, or a
// bridged multi-piconet scatternet with -scatternet.
//
// Single-seed mode keeps every record and writes them to JSON-line files
// for later analysis with btanalyze, after the paper's LogAnalyzer filter
// (collector.DefaultFilter) has collapsed each node's repeated system
// entries. The collection wire itself — per-testbed agents shipping to a
// central sink with acknowledgements, resume and crash recovery — is
// btagent/btsink. With -stream the campaign instead folds records into
// running aggregates as they are collected — O(1) memory in campaign
// length — and prints the paper tables directly, which is what makes
// month-scale runs (-days 30..540) cheap.
//
// Multi-seed mode (-seeds N) runs a sweep on a bounded worker pool and
// reports every table as mean ± 95 % confidence interval over the seeds.
//
// Scatternet mode (-scatternet) composes -piconets full piconet campaigns
// with bridge nodes that time-share membership across piconets on a -hold
// second residency schedule, relaying inter-piconet traffic through the
// real stack path. The bridge→piconet membership map comes from -topology
// (ring, star, mesh, or a seeded random connected graph; the default pairs
// -bridges bridges around the ring), and -redundancy K deploys K
// bridges per span, charging a correlated outage only while all K are down.
// It prints per-piconet tables plus the bridge-attributed failure-coupling
// table, the delay-vs-relay-depth table from the multi-hop probe plane, and
// the redundancy table (measured all-down time against the independent
// 1-out-of-K model); piconet tables aggregate in O(1) memory with -stream
// exactly like single-piconet campaigns (the -out record files are
// single-piconet only).
//
// City scale (-piconets 1000) wants three more knobs: -shards S partitions
// the piconet space across S worker goroutines (0 = GOMAXPROCS; any value
// gives identical results), -probe-sample F keeps each ordered piconet pair
// on the relay probe plane with seeded probability F instead of probing all
// P·(P-1) pairs (probe counts scale back by 1/F in the report; delays are
// unbiased; F=1 is exhaustive and byte-identical), and -rollup (needs
// -stream) folds every finished piconet into one hierarchical metro-wide
// report — deployment Table 2/3/4, per-piconet overview, all-bridge summary
// — instead of retaining P per-piconet results, keeping live memory flat in
// the piconet count.
//
// Usage:
//
//	btcampaign [flags]
//
// Flags:
//
//	-seed N          campaign seed; sweeps use seed..seed+seeds-1 (default 1)
//	-days D          virtual campaign days, 1..540 (default 4)
//	-scenario 1..4   recovery regime: 1=reboot only, 2=app restart+reboot,
//	                 3=SIRAs, 4=SIRAs+masking (default 3)
//	-out DIR         output directory for the single-seed retained
//	                 single-piconet record files (default campaign-data)
//	-stream          fold records into running aggregates (O(1) memory)
//	                 instead of retaining them
//	-seeds N         sweep seed count, N ≥ 1; N > 1 enables sweep mode with
//	                 95% CIs (default 1)
//	-workers W       sweep worker pool size; 0 means NumCPU/2
//	-json FILE       sweep mode: also write the CI tables as JSON (the
//	                 input of docs/CONVERGENCE.md)
//	-checkpoint-dir D  sweep mode: persist each completed seed in D and
//	                 resume interrupted sweeps (streaming sweeps only).
//	                 This is per-seed sweep resume, not the distributed
//	                 plane's crash tolerance: for campaigns run as real
//	                 processes, sink durability is btsink's -checkpoint /
//	                 -checkpoint-dir and agent durability is btagent's
//	                 -spill-dir/-spill-budget write-ahead spill log — the
//	                 two compose, and OPERATIONS.md's crash matrix says
//	                 which flag recovers which failure
//	-scatternet      run a multi-piconet scatternet campaign
//	-piconets P      scatternet piconet count, at least 1 (default 2)
//	-bridges K       scatternet bridge count for the default topology
//	                 (bridge b serves b mod P, b+1 mod P) and the random
//	                 topology's edge budget; ring/star/mesh topologies
//	                 dictate their own bridge count (default 1)
//	-topology T      membership map: ring, star, mesh or random (default
//	                 "": the -bridges pairing above)
//	-redundancy K    bridges per span, at least 1; K >= 2 forms redundancy
//	                 groups whose correlated outage needs all K down at
//	                 once (default 1)
//	-hold S          bridge residency seconds per piconet visit, at least 1
//	                 (default 10)
//	-shards S        single-seed scatternet campaigns: piconet-plane worker
//	                 shards, S ≥ 0; 0 = GOMAXPROCS capped at the piconet count,
//	                 1 = one worker beside the overlay — results identical
//	                 for any value (default 0)
//	-probe-sample F  single-seed scatternet campaigns: relay-probe pair
//	                 sampling fraction in (0, 1]; keeps each ordered
//	                 piconet pair with seeded probability F. 1 probes every
//	                 pair exhaustively (default 1)
//	-rollup          with -scatternet -stream: fold piconets into one
//	                 hierarchical metro-wide report (live memory flat in
//	                 -piconets) instead of per-piconet tables
//	-taxonomy        append the failure-taxonomy / survival plane to the
//	                 report: the per-phase (discovery/probe/open/send/
//	                 session) failure split with transience verdicts and
//	                 MTBF/MTTR, the Kaplan-Meier node-uptime curve and the
//	                 failure-interarrival histogram; sweeps print the
//	                 taxonomy CI summary, scatternet roll-ups add the
//	                 partition-candidate spans (all K bridges of a span
//	                 down >= 30 s at once). A single-seed scatternet
//	                 campaign needs -rollup for it. Rendering only: the
//	                 underlying accumulators always run, so the flag cannot
//	                 change any other table
//
// A flag the chosen mode does not read is rejected with a one-line error
// naming it, never ignored: -out needs a flat, single-seed campaign without
// -stream; -workers needs a sweep; -json and -checkpoint-dir need a flat
// sweep; the six shape flags (-piconets -bridges -topology -redundancy
// -hold -probe-sample) need -scatternet; -shards, -probe-sample and
// -rollup need a single-seed scatternet campaign, and -rollup also needs
// -stream. Every other flag applies in every mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	btpan "repro"
	"repro/cmd/internal/cli"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// cliConfig is the parsed and validated command line.
type cliConfig struct {
	id       cli.Campaign
	shape    cli.Shape
	out      string
	stream   bool
	seeds    int
	workers  int
	jsonOut  string
	ckptDir  string
	scat     bool
	shards   int
	rollup   bool
	taxonomy bool
}

// parseCLI parses and cross-validates the command line. Every validation
// returns an error instead of exiting so the table-driven CLI tests can
// exercise it directly.
func parseCLI(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("btcampaign", flag.ContinueOnError)
	cfg := &cliConfig{}
	cfg.id.Register(fs)
	cfg.shape.Register(fs)
	fs.StringVar(&cfg.out, "out", "campaign-data", "output directory (single-seed retained mode)")
	fs.BoolVar(&cfg.stream, "stream", false, "streaming aggregation: fold records instead of retaining them")
	fs.IntVar(&cfg.seeds, "seeds", 1, "number of sweep seeds (>1 enables sweep mode with 95% CIs)")
	fs.IntVar(&cfg.workers, "workers", 0, "sweep worker pool size (0 = NumCPU/2)")
	fs.StringVar(&cfg.jsonOut, "json", "", "flat sweeps: also write the CI tables as JSON to this file")
	fs.StringVar(&cfg.ckptDir, "checkpoint-dir", "", "flat sweeps: per-seed checkpoint directory (interrupted sweeps resume)")
	fs.BoolVar(&cfg.scat, "scatternet", false, "run a multi-piconet scatternet campaign")
	fs.IntVar(&cfg.shards, "shards", 0, "single-seed scatternet: piconet-plane worker shards (0 = GOMAXPROCS; results identical for any value)")
	fs.BoolVar(&cfg.rollup, "rollup", false, "single-seed scatternet with -stream: one hierarchical metro-wide report, memory flat in -piconets")
	fs.BoolVar(&cfg.taxonomy, "taxonomy", false, "append the failure-taxonomy / survival report (per-phase split, Kaplan-Meier uptime curve, interarrival histogram)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.seeds < 1 {
		return nil, fmt.Errorf("-seeds %d must be at least 1", cfg.seeds)
	}
	if cfg.shards < 0 {
		return nil, fmt.Errorf("-shards %d must be at least 0 (0 = GOMAXPROCS)", cfg.shards)
	}

	sweep := cfg.seeds > 1
	scatternet := cli.Req{OK: cfg.scat, Why: "needs -scatternet (it configures the scatternet plane)"}
	flat := cli.Req{OK: !cfg.scat, Why: "does not apply with -scatternet (it configures the single-piconet campaign)"}
	single := cli.Req{OK: !sweep, Why: "needs a single-seed campaign (-seeds 1)"}
	multi := cli.Req{OK: sweep, Why: "needs sweep mode (-seeds > 1)"}
	modes := cli.Modes{}
	modes.Need("out", flat, single,
		cli.Req{OK: !cfg.stream, Why: "does not apply with -stream (streaming campaigns retain no records)"})
	modes.Need("workers", multi)
	modes.Need("json", flat, multi)
	modes.Need("checkpoint-dir", flat, multi)
	modes.NeedShape(scatternet)
	modes.Need("shards", scatternet, single)
	modes.Need("probe-sample", scatternet, single)
	modes.Need("rollup", scatternet, single,
		cli.Req{OK: cfg.stream, Why: "requires -stream (the roll-up folds streaming aggregates)"})
	modes.Need("taxonomy", cli.Req{OK: !cfg.scat || sweep || cfg.rollup,
		Why: "with -scatternet needs -rollup (the deployment-wide taxonomy folds the roll-up aggregates)"})
	if err := modes.Check(fs); err != nil {
		return nil, err
	}
	if err := cfg.id.Check(); err != nil {
		return nil, err
	}
	if err := cfg.shape.Check(); err != nil {
		return nil, err
	}
	return cfg, nil
}

func main() {
	cfg, err := parseCLI(os.Args[1:])
	if err != nil {
		fatal(err)
	}

	if cfg.scat {
		if cfg.seeds > 1 {
			runScatternetSweep(cfg)
			return
		}
		runScatternet(cfg)
		return
	}

	if cfg.seeds > 1 {
		runSweep(cfg)
		return
	}

	campaign := cfg.id.Config()
	campaign.Streaming = cfg.stream
	fmt.Printf("running %v campaign (scenario %q, seed %d, %s)...\n",
		campaign.Duration, campaign.Scenario, campaign.Seed, mode(cfg.stream))
	res, err := btpan.RunCampaign(campaign)
	if err != nil {
		fatal(err)
	}

	if cfg.stream {
		// Records were folded as they streamed off the nodes; print the
		// canonical streaming report straight from the aggregates. The
		// format is shared with btsink (btpan.WriteReport) so a distributed
		// run of the same seeds is diffable byte for byte.
		btpan.WriteReport(os.Stdout, res)
		if cfg.taxonomy {
			btpan.WriteTaxonomyReport(os.Stdout, res)
		}
		return
	}
	u, s, tot := res.DataItems()
	fmt.Printf("collected %d user reports + %d system entries = %d items\n", u, s, tot)

	reports, entries, err := writeRetained(res, cfg.out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kept %d reports / %d entries after the LogAnalyzer filter -> %s/{user,system}.jsonl\n",
		reports, entries, cfg.out)
	d := res.Dependability()
	fmt.Printf("MTTF %.2f s, MTTR %.2f s, availability %.3f, coverage %.1f%%\n",
		d.MTTF, d.MTTR, d.Availability, d.CoveragePct)
	if cfg.taxonomy {
		btpan.WriteTaxonomyReport(os.Stdout, res)
	}
}

// mode names the aggregation plane for campaign banners.
func mode(stream bool) string {
	if stream {
		return "streaming aggregation"
	}
	return "retained records"
}

// runScatternet runs one scatternet campaign and prints the per-piconet
// tables plus the bridge-attributed coupling, relay-depth and redundancy
// tables, or with -rollup the metro report.
func runScatternet(cfg *cliConfig) {
	sc := cfg.shape.Config(cfg.id)
	sc.Streaming, sc.Parallelism, sc.Rollup = cfg.stream, cfg.shards, cfg.rollup
	fmt.Printf("running %v scatternet campaign (%s, hold %v, scenario %q, seed %d, %s)...\n",
		sc.Duration, cfg.shape, sc.HoldTime, sc.Scenario, sc.Seed, mode(cfg.stream))
	res, err := btpan.RunScatternet(sc)
	if err != nil {
		fatal(err)
	}
	if res.Rollup != nil {
		// The hierarchical metro report replaces the per-piconet spread: the
		// whole deployment in one pass, memory flat in the piconet count.
		var redundancy *analysis.RedundancyTable
		if res.Topology.Bridges() > 0 {
			redundancy = res.Redundancy
		}
		btpan.WriteMetroReport(os.Stdout, res.Rollup, redundancy, sc.Duration, cfg.taxonomy)
		return
	}
	fmt.Printf("\nPiconet overview\n%s", res.Overview().Render())
	for p, pic := range res.Piconets {
		fmt.Printf("\nPiconet %d — Table 2 (error-failure relationship)\n%s", p, pic.Table2().Render())
		fmt.Printf("Piconet %d — Table 3 (SIRA effectiveness)\n%s", p, pic.Table3().Render())
	}
	if res.Topology.Bridges() > 0 {
		fmt.Printf("\nBridge-attributed coupling\n%s", res.Bridges.Render())
		fmt.Printf("\nRelay delay vs depth (store-and-forward probes)\n%s", res.RelayDepth.Render())
		fmt.Printf("\nRedundancy groups (outage charged only when a whole span is down)\n%s",
			res.Redundancy.Render())
		fmt.Printf("\n%d bridge outages propagated as %d correlated piconet-level service interruptions (%.1f s total downtime)\n",
			res.Bridges.TotalOutages(), res.Bridges.CorrelatedOutages(), res.Bridges.TotalDowntimeSeconds())
	}
}

// runScatternetSweep sweeps scatternet campaigns over seeds and prints the
// piconet tables with CIs plus the coupling, relay-depth and redundancy
// estimates.
func runScatternetSweep(cfg *cliConfig) {
	sc := cfg.shape.Config(cfg.id)
	fmt.Printf("sweeping %d seeds x %v scatternet (%s, scenario %q, %d workers)...\n",
		cfg.seeds, sc.Duration, cfg.shape, sc.Scenario, cfg.workers)
	start := time.Now()
	res, err := btpan.Sweep(btpan.SweepConfig{
		BaseSeed: sc.Seed, Seeds: cfg.seeds, Duration: sc.Duration, Scenario: sc.Scenario,
		Workers: cfg.workers, Piconets: sc.Piconets, Bridges: sc.Bridges,
		Topology: sc.Topology, Redundancy: sc.Redundancy, HoldTime: sc.HoldTime,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sweep finished in %v\n\n", time.Since(start).Round(time.Millisecond))
	for p := 0; p < len(res.Scatternets[0].Piconets); p++ {
		fmt.Printf("Piconet %d dependability (mean ± 95%% CI)\n%s\n",
			p, res.PiconetDependabilityCI(p).Render())
	}
	fmt.Printf("Relay delay vs depth (mean ± 95%% CI per seed)\n%s\n", res.RelayDepthCI().Render())
	fmt.Printf("Redundancy (mean ± 95%% CI per seed)\n%s\n", res.RedundancyCI().Render())
	fmt.Printf("correlated piconet outages per seed: %s\n", res.CorrelatedOutagesCI().Format("%.1f"))
	fmt.Printf("bridge downtime per seed (s):        %s\n", res.BridgeDowntimeCI().Format("%.1f"))
	if cfg.taxonomy {
		fmt.Printf("\nTaxonomy (piconet 0, mean ± 95%% CI)\n%s", res.TaxonomyCI().Render())
	}
}

// runSweep runs the multi-seed sweep and prints every table with 95 % CIs.
// -json optionally writes the machine-readable CI summary (the input of
// docs/CONVERGENCE.md); -checkpoint-dir makes the sweep resumable per seed.
func runSweep(cfg *cliConfig) {
	id := cfg.id.Config()
	fmt.Printf("sweeping %d seeds x %v (scenario %q, %d workers)...\n",
		cfg.seeds, id.Duration, id.Scenario, cfg.workers)
	start := time.Now()
	sweep := btpan.SweepConfig{
		BaseSeed: id.Seed, Seeds: cfg.seeds, Duration: id.Duration,
		Scenario: id.Scenario, Workers: cfg.workers, CheckpointDir: cfg.ckptDir,
	}
	res, err := btpan.Sweep(sweep)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("sweep finished in %v\n\n", elapsed.Round(time.Millisecond))
	sc := res.ScalarsCI()
	fmt.Printf("data items per seed: %s user reports, %s system entries\n",
		sc.UserReports.Format("%.0f"), sc.SystemEntries.Format("%.0f"))
	fmt.Printf("random-workload share: %s%% (paper: 84%%)\n\n", sc.RandomSharePct.Format("%.1f"))
	fmt.Printf("Table 2 (error-failure relationship, mean ± 95%% CI)\n%s\n", res.Table2CI().Render())
	fmt.Printf("Table 3 (SIRA effectiveness, mean ± 95%% CI)\n%s\n", res.Table3CI().Render())
	fmt.Printf("Table 4 column (dependability, mean ± 95%% CI)\n%s", res.DependabilityCI().Render())
	if cfg.taxonomy {
		fmt.Printf("\nTaxonomy (mean ± 95%% CI)\n%s", res.TaxonomyCI().Render())
	}
	if cfg.jsonOut != "" {
		if err := writeSweepJSON(cfg.jsonOut, sweep, res, elapsed); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote CI summary -> %s\n", cfg.jsonOut)
	}
}

// ciJSON is one mean ± 95 % CI cell of the sweep's JSON summary.
type ciJSON struct {
	Mean float64 `json:"mean"`
	Half float64 `json:"half"`
	N    int     `json:"n"`
}

// est converts a stats.Estimate for JSON output.
func est(e stats.Estimate) ciJSON { return ciJSON{Mean: e.Mean, Half: e.Half, N: e.N} }

// writeSweepJSON emits the sweep's CI tables as machine-readable JSON: the
// §6 scalars, the Table 4 column, Table 2's TOT column and per-source
// totals, and Table 3's Total row. docs/CONVERGENCE.md is built from these
// files across horizons.
func writeSweepJSON(path string, cfg btpan.SweepConfig, res *btpan.SweepResult,
	elapsed time.Duration) error {
	sc := res.ScalarsCI()
	t2 := res.Table2CI()
	t3 := res.Table3CI()
	d := res.DependabilityCI()
	t2tot := make(map[string]ciJSON, len(t2.Tot))
	for f, e := range t2.Tot {
		t2tot[f.String()] = est(e)
	}
	t2src := make(map[string]ciJSON, len(t2.SourceTotals))
	for src, e := range t2.SourceTotals {
		t2src[src.String()] = est(e)
	}
	t3total := make(map[string]ciJSON, core.NumRecoveryActions)
	for i, a := range core.RecoveryActions() {
		t3total[a.String()] = est(t3.TotalRow[i])
	}
	tax := res.TaxonomyCI()
	taxPhases := make(map[string]ciJSON, len(tax.Failures))
	for p, e := range tax.Failures {
		taxPhases[p.String()] = est(e)
	}
	out := map[string]any{
		"base_seed":    cfg.BaseSeed,
		"seeds":        cfg.Seeds,
		"days":         int(cfg.Duration / sim.Day),
		"scenario":     int(cfg.Scenario),
		"wall_seconds": elapsed.Seconds(),
		"scalars": map[string]ciJSON{
			"user_reports":     est(sc.UserReports),
			"system_entries":   est(sc.SystemEntries),
			"random_share_pct": est(sc.RandomSharePct),
		},
		"dependability": map[string]ciJSON{
			"mttf_s":       est(d.MTTF),
			"mttr_s":       est(d.MTTR),
			"availability": est(d.Availability),
			"coverage_pct": est(d.CoveragePct),
			"masking_pct":  est(d.MaskingPct),
			"failures":     est(d.Failures),
		},
		"table2_tot_pct":    t2tot,
		"table2_source_pct": t2src,
		"table3_total_pct":  t3total,
		"taxonomy": map[string]any{
			"phase_failures":      taxPhases,
			"dynamic_pct":         est(tax.DynamicPct),
			"mean_interarrival_s": est(tax.MeanUptime),
		},
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// writeRetained writes the retained campaign's records to out as JSON-line
// files: every user report, and the system entries that pass the paper's
// LogAnalyzer filter. The filter runs on each (testbed, node) log on its
// own — node names repeat across the two testbeds, and its dedup key is
// only (node, code) — before both testbeds' records are sorted together.
// The sort is stable by (time, node), so the node order here cannot show:
// a tie is either within one node's log or across testbeds, random first.
func writeRetained(res *btpan.CampaignResult, out string) (reports, entries int, err error) {
	filter := collector.DefaultFilter()
	var rs []core.UserReport
	var es []core.SystemEntry
	for _, tb := range []*testbed.Results{res.Random, res.Realistic} {
		for _, log := range tb.PerNodeReports {
			rs = append(rs, log...)
		}
		for _, log := range tb.PerNodeEntries {
			es = append(es, filter.FilterSystem(log)...)
		}
	}
	logging.SortUserReports(rs)
	logging.SortSystemEntries(es)
	if err := os.MkdirAll(out, 0o755); err != nil {
		return 0, 0, err
	}
	if err := writeReports(filepath.Join(out, "user.jsonl"), rs); err != nil {
		return 0, 0, err
	}
	if err := writeEntries(filepath.Join(out, "system.jsonl"), es); err != nil {
		return 0, 0, err
	}
	return len(rs), len(es), nil
}

// writeReports writes reports to path as JSON lines.
func writeReports(path string, reports []core.UserReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return logging.WriteUserReports(f, reports)
}

// writeEntries writes entries to path as JSON lines.
func writeEntries(path string, entries []core.SystemEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return logging.WriteSystemEntries(f, entries)
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "btcampaign:", err)
	os.Exit(1)
}
