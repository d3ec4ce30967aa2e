// Command btsink hosts the distributed collection plane's central
// repository: a multi-tenant service hosting campaign keyspaces, fed by
// btagent shard processes over TCP. It applies sequenced batches exactly
// once, acknowledges durable progress, and — once every declared shard of a
// keyspace has delivered all of its data and its Done frame — exports the
// keyspace's campaign report (Tables 2, 3, the Table 4 column and the §6
// scalars) in exactly the format `btcampaign -stream` prints for the same
// seeds, which is the bit-identity the multi-process smoke tests assert.
// Data loss (sequence gaps, dropped records) fails a keyspace BEFORE any of
// its exports is written.
//
// Without -campaign, -district or -serve, the -seed/-days/-scenario/
// -checkpoint flags declare the default keyspace "" (where agents without a
// -keyspace land) and its report goes to stdout. With repeated -campaign
// flags it hosts many concurrent campaigns, each in its own keyspace with
// its own checkpoint file, ingest quotas and completion state. A keyspace
// may host only a subset of its campaign's testbeds — one shard of a
// horizontally sharded deployment — in which case its completed state is
// exported as a partial (-partial-dir) for cmd/btmerge to fold into the
// full campaign report. SIGTERM/SIGINT trigger a graceful drain: every
// keyspace's checkpoint is sealed, live sessions get a retryable draining
// Reject, and the process exits 0 so a replacement can take over from the
// checkpoint files.
//
// With -checkpoint (or -checkpoint-dir) the sink periodically persists its
// full aggregation state (atomic rename, CRC/length guard trailer, previous
// good file kept as FILE.prev) and acknowledges only checkpoint-covered
// batches: kill it at any instant, restart it with the same flags, and the
// agents resume from the last checkpoint to the same digits. A checkpoint
// torn by a crash mid-write is detected by its trailer and restore falls
// back to FILE.prev instead of resuming from garbage. See PROTOCOL.md for
// the wire format and OPERATIONS.md for deployment walkthroughs.
//
// Usage:
//
//	btsink [flags]
//
// Default-keyspace flags (used when no -campaign, -district or -serve is
// given):
//
//	-seed N              campaign seed (default 1); must match the agents'
//	-days D              virtual campaign days 1..540 (default 4); must match
//	-scenario 1..4       recovery regime (default 3); must match the agents'
//	-checkpoint FILE     enable durable checkpoints at FILE (resumes from it
//	                     when it already exists; empty disables durability)
//
// With -campaign, -district or -serve these four flags are rejected with a
// one-line error naming the flag (the SPEC fields and -checkpoint-dir
// describe those keyspaces), and the default keyspace rejects
// -checkpoint-dir, -partial-dir and -report-dir the same way.
//
// Shared flags:
//
//	-addr ADDR           TCP listen address (default 127.0.0.1:9310)
//	-checkpoint-every N  batch frames between checkpoints, at least 1
//	                     (default 64)
//	-timeout D           campaign completion timeout, e.g. 30m (default 0:
//	                     wait forever; negative is rejected)
//	-taxonomy            append the failure-taxonomy / survival report to
//	                     every campaign report (stdout and -report-dir
//	                     exports), matching `btcampaign -taxonomy` byte for
//	                     byte at the same seeds
//
// Multi-tenant flags:
//
//	-campaign SPEC       host one campaign keyspace (repeatable). SPEC is
//	                     comma-separated key=value pairs:
//	                       key=K            keyspace name (required)
//	                       seed=N           campaign seed (required)
//	                       days=D           virtual days 1..540 (default 4)
//	                       scenario=1..4    recovery regime (default 3)
//	                       testbeds=A+B     testbed subset this sink hosts
//	                                        (default: all; subsets record the
//	                                        depend trace for btmerge)
//	                       quota-bytes=N    ingest byte quota, N ≥ 0
//	                                        (0 = unlimited)
//	                       quota-batches=N  ingest batch quota, N ≥ 0
//	                                        (0 = unlimited)
//	-serve               always-on service mode: start with no campaigns and
//	                     accept registrations over HTTP (-http required)
//	-checkpoint-dir DIR  per-keyspace checkpoints at DIR/<key>.ckpt
//	-partial-dir DIR     write DIR/<key>.partial.json when a keyspace
//	                     completes (the btmerge input)
//	-report-dir DIR      write DIR/<key>.report when a full-campaign keyspace
//	                     completes (canonical btcampaign format)
//	-http ADDR           serve the observability API (/healthz, /readyz,
//	                     /metricsz, /campaigns, live tables) on ADDR
//	-memory-budget N     delay each session's next read while more than N
//	                     records are buffered across all keyspaces
//	                     (0 = no backpressure; negative is rejected)
//
// Scatternet district flags (the distributed metro plane):
//
//	-district SPEC       host one scatternet district keyspace (repeatable).
//	                     Agents in -scatternet mode ship per-piconet fold
//	                     partials into it; the district checkpoints its
//	                     running fold after every applied partial
//	                     (-checkpoint-dir, at DIR/<key>.district.ckpt) and on
//	                     completion exports DIR/<key>.district.json under
//	                     -partial-dir — the input of `btmerge -scatternet`.
//	                     SPEC is comma-separated key=value pairs:
//	                       key=K            keyspace name (required)
//	                       seed=N           campaign seed (required)
//	                       range=A:B        piconet range [A, B) (required)
//	                       days=D           virtual days 1..540 (default 4)
//	                       scenario=1..4    recovery regime (default 3)
//	                       piconets=P       scatternet piconet count, at
//	                                        least 1 (default 2)
//	                       bridges=K        bridge count / edge budget (default 1)
//	                       topology=T       ring, star, mesh, random (default:
//	                                        the bridges= ring pairing)
//	                       redundancy=K     bridges per span, at least 1
//	                                        (default 1)
//	                       hold=S           bridge residency seconds, at
//	                                        least 1 (default 10)
//	                       probe-sample=F   probe pair fraction in (0, 1]
//	                                        (default 1)
//
// A SPEC field parses exactly like the btagent/btcampaign flag of the same
// name: a value out of range is rejected with a one-line error naming the
// field, never clamped to the default, so an agent and its district cannot
// agree on a shape only because both were clamped.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"flag"

	btpan "repro"
	"repro/cmd/internal/cli"
	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/testbed"
)

// campaignFlag is one parsed -campaign SPEC (or the default keyspace the
// -seed/-days/-scenario/-checkpoint flags declare).
type campaignFlag struct {
	key          string
	id           cli.Campaign
	testbeds     []string
	quotaBytes   int64
	quotaBatches int
	checkpoint   string // explicit checkpoint file, overriding -checkpoint-dir
}

// campaignFlags collects repeated -campaign values.
type campaignFlags []campaignFlag

// String renders the accumulated specs (flag.Value).
func (c *campaignFlags) String() string {
	var parts []string
	for _, cf := range *c {
		parts = append(parts, cf.key)
	}
	return strings.Join(parts, ",")
}

// Set parses one -campaign SPEC (flag.Value).
func (c *campaignFlags) Set(v string) error {
	var cf campaignFlag
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	fs.StringVar(&cf.key, "key", "", "keyspace name")
	cf.id.Register(fs)
	fs.Func("testbeds", "testbed subset, A+B", func(s string) error {
		cf.testbeds = strings.Split(s, "+")
		return nil
	})
	fs.Int64Var(&cf.quotaBytes, "quota-bytes", 0, "ingest byte quota (0 = unlimited)")
	fs.IntVar(&cf.quotaBatches, "quota-batches", 0, "ingest batch quota (0 = unlimited)")
	err := cli.SetSpec(fs, v, "key", "seed")
	switch {
	case err != nil:
	case cf.quotaBytes < 0:
		err = fmt.Errorf("quota-bytes %d is negative (0 = unlimited)", cf.quotaBytes)
	case cf.quotaBatches < 0:
		err = fmt.Errorf("quota-batches %d is negative (0 = unlimited)", cf.quotaBatches)
	default:
		err = cf.id.Check()
	}
	if err != nil {
		return fmt.Errorf("-campaign %q: %v", v, err)
	}
	*c = append(*c, cf)
	return nil
}

// districtFlag is one parsed -district SPEC.
type districtFlag struct {
	key   string
	id    cli.Campaign
	rng   cli.Range
	shape cli.Shape
}

// districtFlags collects repeated -district values.
type districtFlags []districtFlag

// String renders the accumulated specs (flag.Value).
func (d *districtFlags) String() string {
	var parts []string
	for _, df := range *d {
		parts = append(parts, df.key)
	}
	return strings.Join(parts, ",")
}

// Set parses one -district SPEC (flag.Value).
func (d *districtFlags) Set(v string) error {
	var df districtFlag
	fs := flag.NewFlagSet("district", flag.ContinueOnError)
	fs.StringVar(&df.key, "key", "", "keyspace name")
	df.id.Register(fs)
	fs.Var(&df.rng, "range", "piconet range A:B")
	df.shape.Register(fs)
	err := cli.SetSpec(fs, v, "key", "seed", "range")
	if err == nil {
		err = df.id.Check()
	}
	if err == nil {
		err = df.shape.Check()
	}
	if err != nil {
		return fmt.Errorf("-district %q: %v", v, err)
	}
	*d = append(*d, df)
	return nil
}

// config builds the collector district for one parsed spec. The scatternet
// identity derives from the same campaign-engine validation the agents use,
// so the effective piconet/bridge counts agree by construction when the
// flags agree.
func (df *districtFlag) config(checkpointDir string) (collector.DistrictConfig, error) {
	camp, net, err := df.shape.District(df.id, df.rng)
	if err != nil {
		return collector.DistrictConfig{}, fmt.Errorf("district %q: %w", df.key, err)
	}
	dc := collector.DistrictConfig{
		Key:          df.key,
		Campaign:     df.id.ID(),
		Net:          net,
		ScenarioName: camp.ScenarioName(),
		Lo:           df.rng.Lo, Hi: df.rng.Hi,
	}
	if checkpointDir != "" {
		dc.CheckpointPath = filepath.Join(checkpointDir, df.key+".district.ckpt")
	}
	return dc, nil
}

// keyspace builds the collector keyspace for one parsed campaign.
func (cf *campaignFlag) keyspace(checkpointDir string) (collector.KeyspaceConfig, error) {
	spec := testbed.CampaignStreamSpec()
	if len(cf.testbeds) > 0 {
		var err error
		if spec, err = analysis.SubSpec(spec, cf.testbeds); err != nil {
			return collector.KeyspaceConfig{}, fmt.Errorf("campaign %q: %w", cf.key, err)
		}
	}
	ks := collector.KeyspaceConfig{
		Key:          cf.key,
		Campaign:     cf.id.ID(),
		Spec:         spec,
		ScenarioName: fmt.Sprint(btpan.Scenario(cf.id.Scenario)),
		MaxBytes:     cf.quotaBytes,
		MaxBatches:   cf.quotaBatches,
	}
	if cf.checkpoint != "" {
		ks.CheckpointPath = cf.checkpoint
	} else if checkpointDir != "" {
		ks.CheckpointPath = filepath.Join(checkpointDir, cf.key+".ckpt")
	}
	return ks, nil
}

// cliConfig is the parsed, cross-validated command line.
type cliConfig struct {
	sink       collector.SinkConfig
	campaigns  []campaignFlag
	districts  []districtFlag
	stdout     bool      // the default keyspace's report goes to out
	out        io.Writer // os.Stdout; the CLI tests capture it
	serve      bool
	httpAddr   string
	partialDir string
	reportDir  string
	timeout    time.Duration
	taxonomy   bool
}

// parseCLI parses and validates the command line and builds the sink
// configuration. Every validation returns an error instead of exiting so
// the CLI tests can exercise it directly.
func parseCLI(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("btsink", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9310", "TCP listen address")
	var shared cli.Campaign
	shared.Register(fs)
	checkpoint := fs.String("checkpoint", "", "default keyspace: checkpoint file (empty disables durability)")
	every := fs.Int("checkpoint-every", 64, "batch frames between checkpoints")
	timeout := fs.Duration("timeout", 0, "campaign completion timeout (0 = forever)")
	taxonomy := fs.Bool("taxonomy", false,
		"append the failure-taxonomy / survival report to final campaign reports")
	var campaigns campaignFlags
	fs.Var(&campaigns, "campaign", "host one campaign keyspace (repeatable; see package doc)")
	var districts districtFlags
	fs.Var(&districts, "district", "host one scatternet district keyspace (repeatable; see package doc)")
	serve := fs.Bool("serve", false, "always-on service mode (campaigns register over HTTP)")
	checkpointDir := fs.String("checkpoint-dir", "", "per-keyspace checkpoint directory")
	partialDir := fs.String("partial-dir", "", "write <key>.partial.json here on keyspace completion")
	reportDir := fs.String("report-dir", "", "write <key>.report here when a full-campaign keyspace completes")
	httpAddr := fs.String("http", "", "observability HTTP listen address (empty disables)")
	memoryBudget := fs.Int("memory-budget", 0, "buffered record count above which session reads are delayed (0 = off)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	defaultKeyspace := len(campaigns) == 0 && len(districts) == 0 && !*serve
	modes := cli.Modes{}
	for _, name := range []string{"seed", "days", "scenario", "checkpoint"} {
		modes.Need(name, cli.Req{OK: defaultKeyspace,
			Why: "configures the default keyspace only; it does not apply with -campaign, -district or -serve " +
				"(their SPEC fields and -checkpoint-dir do)"})
	}
	for _, name := range []string{"checkpoint-dir", "partial-dir", "report-dir"} {
		modes.Need(name, cli.Req{OK: !defaultKeyspace,
			Why: "needs -campaign, -district or -serve (the default keyspace checkpoints at -checkpoint and reports on stdout)"})
	}
	if err := modes.Check(fs); err != nil {
		return nil, err
	}
	if *serve && *httpAddr == "" {
		return nil, fmt.Errorf("-serve needs -http to accept campaign registrations")
	}
	switch {
	case *every < 1:
		return nil, fmt.Errorf("-checkpoint-every %d must be at least 1", *every)
	case *memoryBudget < 0:
		return nil, fmt.Errorf("-memory-budget %d is negative (0 is no backpressure)", *memoryBudget)
	case *timeout < 0:
		return nil, fmt.Errorf("-timeout %v is negative (0 waits forever)", *timeout)
	}
	conf := &cliConfig{
		out:       os.Stdout,
		campaigns: campaigns, districts: districts, serve: *serve, httpAddr: *httpAddr,
		partialDir: *partialDir, reportDir: *reportDir, timeout: *timeout, taxonomy: *taxonomy,
		sink: collector.SinkConfig{
			Addr:            *addr,
			CheckpointEvery: *every,
			MemoryBudget:    *memoryBudget,
			AllowEmpty:      *serve,
			SpecResolver: func(c collector.CampaignID, testbeds []string) (analysis.StreamSpec, error) {
				if len(testbeds) == 0 {
					return testbed.CampaignStreamSpec(), nil
				}
				return analysis.SubSpec(testbed.CampaignStreamSpec(), testbeds)
			},
		},
	}
	if defaultKeyspace {
		if err := shared.Check(); err != nil {
			return nil, err
		}
		conf.campaigns = []campaignFlag{{id: shared, checkpoint: *checkpoint}}
		conf.stdout = true
	}
	for _, cf := range conf.campaigns {
		ks, err := cf.keyspace(*checkpointDir)
		if err != nil {
			return nil, err
		}
		conf.sink.Keyspaces = append(conf.sink.Keyspaces, ks)
	}
	for i := range districts {
		dc, err := districts[i].config(*checkpointDir)
		if err != nil {
			return nil, err
		}
		conf.sink.Districts = append(conf.sink.Districts, dc)
	}
	return conf, nil
}

func main() {
	conf, err := parseCLI(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	sink, err := collector.NewSink(conf.sink)
	if err != nil {
		fatal(err)
	}
	if conf.httpAddr != "" {
		ln, err := net.Listen("tcp", conf.httpAddr)
		if err != nil {
			fatal(fmt.Errorf("http listen %s: %w", conf.httpAddr, err))
		}
		fmt.Fprintf(os.Stderr, "btsink: observability API on http://%s\n", ln.Addr())
		go http.Serve(ln, sink.Handler())
	}

	// SIGTERM/SIGINT: graceful drain — seal every checkpoint, send live
	// sessions a retryable draining Reject, exit 0 so the supervisor knows
	// this was a clean handoff, not a crash.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "btsink: %v: draining\n", sig)
		if err := sink.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "btsink: drain:", err)
			sink.Close()
			os.Exit(1)
		}
		sink.Close()
		os.Exit(0)
	}()

	fmt.Fprintf(os.Stderr, "btsink: listening on %s (%d campaigns, %d districts%s)\n",
		sink.Addr(), len(conf.campaigns), len(conf.districts),
		map[bool]string{true: ", serve mode", false: ""}[conf.serve])

	// Every configured keyspace gets a completion watcher that exports its
	// partial and, for full-campaign keyspaces, its canonical report.
	var wg sync.WaitGroup
	failures := make(chan error, len(conf.campaigns)+len(conf.districts))
	for _, cf := range conf.campaigns {
		wg.Add(1)
		go func(cf campaignFlag) {
			defer wg.Done()
			if err := watchKeyspace(sink, cf, conf); err != nil {
				failures <- fmt.Errorf("campaign %q: %w", cf.key, err)
			}
		}(cf)
	}
	for _, df := range conf.districts {
		wg.Add(1)
		go func(df districtFlag) {
			defer wg.Done()
			if err := watchDistrict(sink, df, conf.partialDir, conf.timeout); err != nil {
				failures <- fmt.Errorf("district %q: %w", df.key, err)
			}
		}(df)
	}
	wg.Wait()
	close(failures)
	failed := false
	for err := range failures {
		failed = true
		fmt.Fprintln(os.Stderr, "btsink:", err)
	}
	if conf.serve {
		select {} // stay up for registered campaigns until a signal drains us
	}
	if err := sink.Close(); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// watchKeyspace waits for one keyspace's completion, fails it on data loss
// BEFORE anything is exported — a report implying completeness must never
// precede the verdict that the data is incomplete — and then writes its
// exports: the partial, and for a full-campaign keyspace the canonical
// report (stdout for the default keyspace, -report-dir otherwise).
func watchKeyspace(sink *collector.Sink, cf campaignFlag, conf *cliConfig) error {
	rep, err := sink.WaitKeyspace(cf.key, conf.timeout)
	if err != nil {
		return err
	}
	applied, dups, rejected := sink.Stats()
	fmt.Fprintf(os.Stderr, "btsink: campaign %q complete (%d testbeds; sink totals: %d batches applied, "+
		"%d duplicates filtered, %d rejected)\n", cf.key, len(rep.Durations), applied, dups, rejected)
	if rep.Agg.SeqGaps > 0 || rep.Agg.DroppedRecords > 0 {
		return fmt.Errorf("data loss: %d sequence gaps, %d dropped records",
			rep.Agg.SeqGaps, rep.Agg.DroppedRecords)
	}
	if conf.partialDir != "" {
		p, err := sink.Partial(cf.key)
		if err != nil {
			return err
		}
		blob, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if err := collector.WriteFileDurable(filepath.Join(conf.partialDir, cf.key+".partial.json"), blob); err != nil {
			return err
		}
	}
	if len(cf.testbeds) > 0 || (!conf.stdout && conf.reportDir == "") {
		return nil
	}
	cfg := cf.id.Config()
	cfg.Streaming = true
	res, err := btpan.ResultFromAggregates(cfg, rep.Agg, rep.Counters, rep.Durations)
	if err != nil {
		return err
	}
	if conf.stdout {
		writeReport(conf.out, res, conf.taxonomy)
		return nil
	}
	f, err := os.Create(filepath.Join(conf.reportDir, cf.key+".report"))
	if err != nil {
		return err
	}
	writeReport(f, res, conf.taxonomy)
	return f.Close()
}

// writeReport prints the canonical campaign report, with the taxonomy
// appendix when asked for.
func writeReport(w io.Writer, res *btpan.CampaignResult, taxonomy bool) {
	btpan.WriteReport(w, res)
	if taxonomy {
		btpan.WriteTaxonomyReport(w, res)
	}
}

// watchDistrict waits for one district's piconet range to fold completely
// and exports its sealed partial — the `btmerge -scatternet` input.
func watchDistrict(sink *collector.Sink, df districtFlag, partialDir string,
	timeout time.Duration) error {
	p, err := sink.WaitDistrict(df.key, timeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "btsink: district %q complete (piconets [%d:%d))\n",
		df.key, p.Lo, p.Hi)
	if partialDir != "" {
		blob, err := json.Marshal(p)
		if err != nil {
			return err
		}
		path := filepath.Join(partialDir, df.key+".district.json")
		if err := collector.WriteFileDurable(path, blob); err != nil {
			return err
		}
	}
	return nil
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "btsink:", err)
	os.Exit(1)
}
