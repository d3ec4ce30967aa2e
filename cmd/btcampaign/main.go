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
//	-seeds N         sweep seed count; N > 1 enables sweep mode with 95% CIs
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
//	-piconets P      scatternet piconet count (default 2)
//	-bridges K       scatternet bridge count for the default topology
//	                 (bridge b serves b mod P, b+1 mod P) and the random
//	                 topology's edge budget; ring/star/mesh topologies
//	                 dictate their own bridge count (default 1)
//	-topology T      membership map: ring, star, mesh or random (default
//	                 "": the -bridges pairing above)
//	-redundancy K    bridges per span; K >= 2 forms redundancy groups whose
//	                 correlated outage needs all K down at once (default 1)
//	-hold S          bridge residency seconds per piconet visit (default 10)
//	-shards S        scatternet piconet-plane worker shards; 0 = GOMAXPROCS
//	                 capped at the piconet count, 1 = one worker beside
//	                 the overlay — results identical for any value
//	                 (default 0)
//	-probe-sample F  relay-probe pair sampling fraction in (0, 1]; keeps
//	                 each ordered piconet pair with seeded probability F.
//	                 1 probes every pair exhaustively (default 1)
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
//	                 down >= 30 s at once). Rendering only: the underlying
//	                 accumulators always run, so the flag cannot change
//	                 any other table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	btpan "repro"
	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/logging"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// cliConfig is the parsed and validated command line.
type cliConfig struct {
	seed     uint64
	duration sim.Time
	scenario btpan.Scenario
	out      string
	stream   bool
	seeds    int
	workers  int
	jsonOut  string
	ckptDir  string
	scat     bool
	taxonomy bool
	topo     scatTopology
}

// partitionThresholdSeconds is the -taxonomy report's partition-candidate
// threshold: a span qualifies when all its bridges were simultaneously
// down for at least this long (tests sweep other thresholds through the
// library API).
const partitionThresholdSeconds = 30

// scatOnlyFlags are meaningful only with -scatternet; setting one on a flat
// campaign is a configuration error (the flag would be silently ignored,
// and a silently ignored -probe-sample or -rollup is exactly the kind of
// misconfiguration that produces a report nobody meant to run).
var scatOnlyFlags = map[string]bool{
	"probe-sample": true, "rollup": true, "hold": true, "piconets": true,
	"bridges": true, "topology": true, "redundancy": true,
}

// parseCLI parses and cross-validates the command line. Every validation
// returns an error instead of exiting so the table-driven CLI tests can
// exercise it directly.
func parseCLI(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("btcampaign", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "campaign seed (sweeps use seed..seed+seeds-1)")
	days := fs.Int("days", 4, "virtual campaign days (1..540; 30+ is month scale)")
	scenario := fs.Int("scenario", int(btpan.ScenarioSIRAs),
		"recovery scenario: 1=reboot only, 2=app restart+reboot, 3=SIRAs, 4=SIRAs+masking")
	out := fs.String("out", "campaign-data", "output directory (single-seed retained mode)")
	stream := fs.Bool("stream", false, "streaming aggregation: fold records instead of retaining them")
	seeds := fs.Int("seeds", 1, "number of sweep seeds (>1 enables sweep mode with 95% CIs)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = NumCPU/2)")
	jsonOut := fs.String("json", "", "sweep mode: also write the CI tables as JSON to this file")
	ckptDir := fs.String("checkpoint-dir", "", "sweep mode: per-seed checkpoint directory (interrupted sweeps resume)")
	scat := fs.Bool("scatternet", false, "run a multi-piconet scatternet campaign")
	piconets := fs.Int("piconets", 2, "scatternet piconet count (with -scatternet)")
	bridges := fs.Int("bridges", 1, "scatternet bridge count: default pairing / random edge budget (with -scatternet)")
	topology := fs.String("topology", "", "scatternet membership map: ring, star, mesh or random (empty = -bridges pairing)")
	redundancy := fs.Int("redundancy", 1, "bridges per span; >= 2 forms redundancy groups (with -scatternet)")
	hold := fs.Int("hold", 10, "bridge residency seconds per piconet visit (with -scatternet)")
	shards := fs.Int("shards", 0, "scatternet piconet-plane worker shards (0 = GOMAXPROCS; results identical for any value)")
	probeSample := fs.Float64("probe-sample", 1, "relay-probe pair sampling fraction in (0, 1]; 1 = exhaustive")
	rollup := fs.Bool("rollup", false, "scatternet streaming mode: one hierarchical metro-wide report, memory flat in -piconets")
	taxonomy := fs.Bool("taxonomy", false, "append the failure-taxonomy / survival report (per-phase split, Kaplan-Meier uptime curve, interarrival histogram)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if *days < 1 || *days > 540 {
		return nil, fmt.Errorf("-days %d out of range 1..540 (the paper's campaign was 540 days)", *days)
	}
	if *scenario < 1 || *scenario > 4 {
		return nil, fmt.Errorf("-scenario %d out of range 1..4", *scenario)
	}
	if !*scat {
		var stray string
		fs.Visit(func(f *flag.Flag) {
			if stray == "" && scatOnlyFlags[f.Name] {
				stray = f.Name
			}
		})
		if stray != "" {
			return nil, fmt.Errorf("-%s needs -scatternet (it configures the scatternet plane)", stray)
		}
	} else {
		if err := btpan.CheckProbeSample(*probeSample); err != nil {
			return nil, err
		}
		if *jsonOut != "" || *ckptDir != "" {
			return nil, fmt.Errorf("-json and -checkpoint-dir support classic sweeps only, not -scatternet")
		}
		if *seeds > 1 && *rollup {
			return nil, fmt.Errorf("-rollup is a single-campaign report; sweeps aggregate across seeds already")
		}
		if *seeds <= 1 && *rollup && !*stream {
			return nil, fmt.Errorf("-rollup requires -stream (the roll-up folds streaming aggregates)")
		}
	}
	if !*scat && *seeds <= 1 && (*jsonOut != "" || *ckptDir != "") {
		return nil, fmt.Errorf("-json and -checkpoint-dir need sweep mode (-seeds > 1)")
	}
	if *taxonomy && *scat && *seeds <= 1 && !*rollup {
		return nil, fmt.Errorf("-taxonomy with -scatternet needs -rollup (the deployment-wide taxonomy folds the roll-up aggregates)")
	}

	return &cliConfig{
		seed: *seed, duration: sim.Time(*days) * sim.Day,
		scenario: btpan.Scenario(*scenario),
		out:      *out, stream: *stream,
		seeds: *seeds, workers: *workers, jsonOut: *jsonOut, ckptDir: *ckptDir,
		scat: *scat, taxonomy: *taxonomy,
		topo: scatTopology{piconets: *piconets, bridges: *bridges,
			name: *topology, redundancy: *redundancy,
			hold:   sim.Time(*hold) * sim.Second,
			shards: *shards, probeSample: *probeSample, rollup: *rollup},
	}, nil
}

func main() {
	cfg, err := parseCLI(os.Args[1:])
	if err != nil {
		fatal(err)
	}

	if cfg.scat {
		if cfg.seeds > 1 {
			runScatternetSweep(cfg.seed, cfg.seeds, cfg.duration, cfg.scenario, cfg.workers, cfg.topo, cfg.taxonomy)
			return
		}
		runScatternet(cfg.seed, cfg.duration, cfg.scenario, cfg.topo, cfg.stream, cfg.taxonomy)
		return
	}

	if cfg.seeds > 1 {
		runSweep(cfg.seed, cfg.seeds, cfg.duration, cfg.scenario, cfg.workers, cfg.jsonOut, cfg.ckptDir, cfg.taxonomy)
		return
	}

	campaign := btpan.CampaignConfig{
		Seed:      cfg.seed,
		Duration:  cfg.duration,
		Scenario:  cfg.scenario,
		Streaming: cfg.stream,
	}
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

func mode(stream bool) string {
	if stream {
		return "streaming aggregation"
	}
	return "retained records"
}

// scatTopology bundles the CLI's scatternet topology and scale knobs.
type scatTopology struct {
	piconets, bridges, redundancy int
	name                          string
	hold                          sim.Time
	shards                        int
	probeSample                   float64
	rollup                        bool
}

// describe renders the topology knobs for campaign banners.
func (t scatTopology) describe() string {
	name := t.name
	if name == "" {
		name = fmt.Sprintf("legacy ring, %d bridge(s)", t.bridges)
	}
	if t.redundancy > 1 {
		name += fmt.Sprintf(", %d-redundant", t.redundancy)
	}
	return fmt.Sprintf("%d piconets, %s topology", t.piconets, name)
}

// runScatternet runs one scatternet campaign and prints the per-piconet
// tables plus the bridge-attributed coupling, relay-depth and redundancy
// tables.
func runScatternet(seed uint64, duration sim.Time, scenario btpan.Scenario,
	topo scatTopology, stream, taxonomy bool) {
	fmt.Printf("running %v scatternet campaign (%s, hold %v, scenario %q, seed %d, %s)...\n",
		duration, topo.describe(), topo.hold, scenario, seed, mode(stream))
	res, err := btpan.RunScatternet(btpan.ScatternetConfig{
		CampaignConfig: btpan.CampaignConfig{
			Seed: seed, Duration: duration, Scenario: scenario, Streaming: stream,
			Parallelism: topo.shards,
		},
		Piconets: topo.piconets, Bridges: topo.bridges,
		Topology: topo.name, Redundancy: topo.redundancy, HoldTime: topo.hold,
		ProbeSample: topo.probeSample, Rollup: topo.rollup,
	})
	if err != nil {
		fatal(err)
	}
	if res.Rollup != nil {
		// The hierarchical metro report replaces the per-piconet spread: the
		// whole deployment in one pass, memory flat in the piconet count.
		fmt.Printf("\n%s", res.Rollup.Render())
		if res.Topology.Bridges() > 0 {
			fmt.Printf("\nRedundancy groups (outage charged only when a whole span is down)\n%s",
				res.Redundancy.Render())
		}
		if taxonomy {
			fmt.Printf("\n%s", res.Rollup.RenderTaxonomy(duration))
			if res.Topology.Bridges() > 0 {
				fmt.Printf("\n%s", res.Redundancy.RenderPartitionCandidates(partitionThresholdSeconds))
			}
		}
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
func runScatternetSweep(baseSeed uint64, seeds int, duration sim.Time,
	scenario btpan.Scenario, workers int, topo scatTopology, taxonomy bool) {
	fmt.Printf("sweeping %d seeds x %v scatternet (%s, scenario %q, %d workers)...\n",
		seeds, duration, topo.describe(), scenario, workers)
	start := time.Now()
	res, err := btpan.Sweep(btpan.SweepConfig{
		BaseSeed: baseSeed, Seeds: seeds, Duration: duration, Scenario: scenario,
		Workers: workers, Piconets: topo.piconets, Bridges: topo.bridges,
		Topology: topo.name, Redundancy: topo.redundancy, HoldTime: topo.hold,
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
	if taxonomy {
		fmt.Printf("\nTaxonomy (piconet 0, mean ± 95%% CI)\n%s", res.TaxonomyCI().Render())
	}
}

// runSweep runs the multi-seed sweep and prints every table with 95 % CIs.
// jsonOut optionally writes the machine-readable CI summary (the input of
// docs/CONVERGENCE.md); ckptDir makes the sweep resumable per seed.
func runSweep(baseSeed uint64, seeds int, duration sim.Time, scenario btpan.Scenario,
	workers int, jsonOut, ckptDir string, taxonomy bool) {
	fmt.Printf("sweeping %d seeds x %v (scenario %q, %d workers)...\n",
		seeds, duration, scenario, workers)
	start := time.Now()
	cfg := btpan.SweepConfig{
		BaseSeed: baseSeed, Seeds: seeds, Duration: duration,
		Scenario: scenario, Workers: workers, CheckpointDir: ckptDir,
	}
	res, err := btpan.Sweep(cfg)
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
	if taxonomy {
		fmt.Printf("\nTaxonomy (mean ± 95%% CI)\n%s", res.TaxonomyCI().Render())
	}
	if jsonOut != "" {
		if err := writeSweepJSON(jsonOut, cfg, res, elapsed); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote CI summary -> %s\n", jsonOut)
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
		rs = append(rs, tb.Reports...)
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

func writeReports(path string, reports []core.UserReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return logging.WriteUserReports(f, reports)
}

func writeEntries(path string, entries []core.SystemEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return logging.WriteSystemEntries(f, entries)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "btcampaign:", err)
	os.Exit(1)
}
