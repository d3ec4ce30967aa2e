// Package testbed assembles and runs the paper's experimental setup: two
// heterogeneous 7-node piconets (one driven by the Random workload, one by
// the Realistic workload) that operated 24/7 from June 2004, plus the
// special fixed-length experiment of Figure 3b (two machines, two months).
//
// A testbed owns its simulation world, its hosts (built from the device
// catalogue), per-node Test/System logs, and one BlueTest client per PANU.
// Campaigns run both testbeds for a virtual duration and gather every log
// into a Results bundle that the coalescence/analysis pipeline consumes.
// The mid-campaign hardware replacement of the paper (both testbeds were
// swapped for identically configured ones to reduce aging) is modelled as a
// scheduled maintenance reboot of every node.
package testbed

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/logging"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// Options configures one testbed.
type Options struct {
	// Name labels the testbed ("random", "realistic", "fixed").
	Name string
	// Seed roots the testbed's deterministic randomness.
	Seed uint64
	// Kind selects the workload.
	Kind core.WorkloadKind
	// Scenario selects the recovery regime (Table 4 column).
	Scenario recovery.Scenario
	// Nodes optionally restricts the PANUs (the fixed workload ran on Verde
	// and Win only). Empty means all six.
	Nodes []string
	// MutateHost lets callers adjust per-host configurations (used by
	// calibration tests). Called for every host including the NAP.
	MutateHost func(name string, cfg *stack.Config)
	// MutateWorkload adjusts the workload configuration per client.
	MutateWorkload func(node string, cfg *workload.Config)
	// ReplaceHardwareAt schedules the mid-campaign hardware replacement
	// (0 disables it).
	ReplaceHardwareAt sim.Time
}

// Testbed is one live 7-node piconet.
type Testbed struct {
	Name     string
	World    *sim.World
	NAP      *stack.Host
	PANUs    []*stack.Host
	Clients  []*workload.Client
	TestLogs map[string]*logging.TestLog
	SysLogs  map[string]*logging.SystemLog

	opts   Options
	connID uint64
	// keep makes every drain leave the records in the logs too
	// (Campaign.KeepRecords).
	keep bool
}

// New assembles a testbed from the device catalogue.
func New(opts Options) (*Testbed, error) {
	if opts.Name == "" {
		return nil, fmt.Errorf("testbed: no name")
	}
	if opts.Kind == core.WLUnknown {
		return nil, fmt.Errorf("testbed: no workload kind")
	}
	tb := &Testbed{
		Name:     opts.Name,
		World:    sim.NewWorld(opts.Seed),
		TestLogs: make(map[string]*logging.TestLog),
		SysLogs:  make(map[string]*logging.SystemLog),
		opts:     opts,
	}
	clock := func() sim.Time { return tb.World.Now() }

	wanted := map[string]bool{}
	for _, n := range opts.Nodes {
		wanted[n] = true
	}

	for _, spec := range device.Catalog() {
		if !spec.IsNAP && len(wanted) > 0 && !wanted[spec.Name] {
			continue
		}
		sys := logging.NewSystemLog(spec.Name)
		tb.SysLogs[spec.Name] = sys
		cfg := spec.HostConfig()
		if opts.MutateHost != nil {
			opts.MutateHost(spec.Name, &cfg)
		}
		host := stack.NewHost(cfg, tb.World, spec.Name, spec.OS, spec.DistanceM,
			spec.IsPDA, spec.IsNAP, spec.BuildTransport(tb.World), &tb.connID,
			sys.Sink(opts.Name, clock, nil))
		if spec.IsNAP {
			tb.NAP = host
			continue
		}
		tb.PANUs = append(tb.PANUs, host)
		tb.TestLogs[spec.Name] = logging.NewTestLog()
	}
	if tb.NAP == nil {
		return nil, fmt.Errorf("testbed: catalogue has no NAP")
	}
	if len(tb.PANUs) == 0 {
		return nil, fmt.Errorf("testbed: no PANUs selected")
	}

	for _, host := range tb.PANUs {
		wcfg := workloadConfig(opts, host.Node)
		if opts.MutateWorkload != nil {
			opts.MutateWorkload(host.Node, &wcfg)
		}
		client := workload.NewClient(wcfg, tb.World, host, tb.NAP, tb.TestLogs[host.Node])
		tb.Clients = append(tb.Clients, client)
	}
	return tb, nil
}

// workloadConfig picks the per-kind default.
func workloadConfig(opts Options, node string) workload.Config {
	switch opts.Kind {
	case core.WLRealistic:
		return workload.DefaultRealistic(opts.Name, opts.Scenario)
	case core.WLFixed:
		return workload.DefaultFixed(opts.Name, opts.Scenario)
	default:
		return workload.DefaultRandom(opts.Name, opts.Scenario)
	}
}

// Run starts every client and advances the world to the horizon.
func (tb *Testbed) Run(duration sim.Time) {
	for _, c := range tb.Clients {
		c.Start()
	}
	if at := tb.opts.ReplaceHardwareAt; at > 0 && at < duration {
		tb.World.Schedule(at, tb.replaceHardware)
	}
	tb.World.RunUntil(duration)
}

// replaceHardware models the paper's mid-campaign testbed swap: every node
// gets fresh hardware with identical configuration (a maintenance reboot;
// no failure data is produced).
func (tb *Testbed) replaceHardware() {
	tb.NAP.ResetStack()
	for _, h := range tb.PANUs {
		h.Reboot()
	}
}

// Ingestor consumes a testbed's periodic log drains: each call delivers one
// node's next time-ordered records with a watermark promising that all of
// the node's data up to that virtual instant has been delivered. The local
// streaming aggregator (*analysis.Streamer) satisfies it, and so does the
// distributed plane's uplink (collector.Agent) — a testbed streams to either
// without knowing whether the aggregation happens in-process or behind a
// TCP session.
type Ingestor interface {
	Ingest(testbed, node string, reports []core.UserReport,
		entries []core.SystemEntry, watermark sim.Time) error
}

// SpecEntry describes this testbed's streams for a streaming aggregator.
func (tb *Testbed) SpecEntry() analysis.TestbedSpec {
	spec := analysis.TestbedSpec{Name: tb.Name, Kind: tb.opts.Kind, NAP: tb.NAP.Node}
	for _, h := range tb.PANUs {
		spec.PANUs = append(spec.PANUs, h.Node)
	}
	return spec
}

// StreamTo arms the testbed's streaming collection: every `every` of
// virtual time, each node's Test/System logs are drained into s with the
// current instant as the stream watermark, so the logs never accumulate a
// campaign's worth of records. Call before Run; pair with a FinishStream
// after Run to ship the tail.
func (tb *Testbed) StreamTo(s Ingestor, every sim.Time) {
	if every <= 0 {
		panic(fmt.Sprintf("testbed: non-positive stream flush interval %v", every))
	}
	var tick func()
	tick = func() {
		tb.drainTo(s)
		tb.World.ScheduleAfter(every, tick)
	}
	tb.World.Schedule(every, tick)
}

// FinishStream ships whatever the logs still hold after the horizon.
func (tb *Testbed) FinishStream(s Ingestor) {
	tb.drainTo(s)
}

// drainTo ships every node's current log contents with watermark = now.
func (tb *Testbed) drainTo(s Ingestor) {
	now := tb.World.Now()
	for _, h := range tb.PANUs {
		if err := s.Ingest(tb.Name, h.Node, tb.TestLogs[h.Node].Drain(tb.keep),
			tb.SysLogs[h.Node].Drain(tb.keep), now); err != nil {
			panic(err) // spec mismatch: programming error, not data error
		}
	}
	if err := s.Ingest(tb.Name, tb.NAP.Node, nil, tb.SysLogs[tb.NAP.Node].Drain(tb.keep), now); err != nil {
		panic(err)
	}
}

// Results bundles a finished testbed's data for analysis.
type Results struct {
	Name     string
	Duration sim.Time
	NAPNode  string
	// PerNodeReports/PerNodeEntries hold every record, once, in each
	// node's log order: user-level reports (masked ones included) and
	// system-level entries. Reports and Entries give the time-sorted views.
	PerNodeReports map[string][]core.UserReport
	PerNodeEntries map[string][]core.SystemEntry
	// Counters keeps the per-client counters.
	Counters map[string]*workload.Counters
}

// Results gathers the testbed's data after Run.
func (tb *Testbed) Results() *Results {
	res := &Results{
		Name:           tb.Name,
		Duration:       tb.World.Now(),
		NAPNode:        tb.NAP.Node,
		PerNodeReports: make(map[string][]core.UserReport),
		PerNodeEntries: make(map[string][]core.SystemEntry),
		Counters:       make(map[string]*workload.Counters),
	}
	for node, log := range tb.TestLogs {
		res.PerNodeReports[node] = log.Snapshot()
	}
	for node, log := range tb.SysLogs {
		res.PerNodeEntries[node] = log.Snapshot()
	}
	for _, c := range tb.Clients {
		res.Counters[c.Node()] = c.Counters()
	}
	return res
}

// Reports returns every user-level report of the testbed (masked ones
// included), sorted by (time, node) — a fresh slice each call.
func (r *Results) Reports() []core.UserReport {
	reports := slices.Concat(slices.Collect(maps.Values(r.PerNodeReports))...)
	logging.SortUserReports(reports)
	return reports
}

// Entries returns every system-level entry of the testbed, sorted by
// (time, node) — a fresh slice each call.
func (r *Results) Entries() []core.SystemEntry {
	entries := slices.Concat(slices.Collect(maps.Values(r.PerNodeEntries))...)
	logging.SortSystemEntries(entries)
	return entries
}

// Campaign runs the paper's two testbeds.
type Campaign struct {
	Random    *Testbed
	Realistic *Testbed
	// Sequential runs the realistic testbed after the random one on the
	// caller's goroutine instead of beside it on a second goroutine. The
	// scatternet sets it: its parallelism comes from sharding the piconet
	// space instead.
	Sequential bool
	// KeepRecords makes every node's logs keep their records while they
	// drain, so the Results hold every record as well.
	KeepRecords bool
}

// CampaignOptions returns the two testbed Options a campaign of the given
// seed and scenario is built from, with the mid-campaign hardware
// replacement scheduled at duration/2 (pass 0 to defer that to the
// campaign's RunStreaming). The distributed plane's agents build exactly
// one of the two, which is what makes a testbed shard in its own OS
// process bit-identical to the same testbed inside a single-process
// campaign.
func CampaignOptions(seed uint64, scenario recovery.Scenario, duration sim.Time) (random, realistic Options) {
	random = Options{
		Name: "random", Seed: seed ^ 0x72616E64, Kind: core.WLRandom,
		Scenario: scenario, ReplaceHardwareAt: duration / 2,
	}
	realistic = Options{
		Name: "realistic", Seed: seed ^ 0x7265616C, Kind: core.WLRealistic,
		Scenario: scenario, ReplaceHardwareAt: duration / 2,
	}
	return random, realistic
}

// CampaignStreamSpec declares the standard two-testbed campaign's streams
// from the device catalogue alone — what a collection sink needs to host
// the streaming aggregator without building any hosts. It is exactly
// Campaign.StreamSpec for a freshly built campaign (pinned by test).
func CampaignStreamSpec() analysis.StreamSpec {
	var nap string
	var panus []string
	for _, spec := range device.Catalog() {
		if spec.IsNAP {
			nap = spec.Name
			continue
		}
		panus = append(panus, spec.Name)
	}
	return analysis.StreamSpec{Testbeds: []analysis.TestbedSpec{
		{Name: "random", Kind: core.WLRandom, NAP: nap, PANUs: panus},
		{Name: "realistic", Kind: core.WLRealistic, NAP: nap, PANUs: panus},
	}}
}

// NewCampaign builds both testbeds with derived seeds.
func NewCampaign(seed uint64, scenario recovery.Scenario,
	mutateHost func(name string, cfg *stack.Config)) (*Campaign, error) {
	randomOpts, realisticOpts := CampaignOptions(seed, scenario, 0)
	randomOpts.MutateHost = mutateHost
	realisticOpts.MutateHost = mutateHost
	random, err := New(randomOpts)
	if err != nil {
		return nil, err
	}
	realistic, err := New(realisticOpts)
	if err != nil {
		return nil, err
	}
	return &Campaign{Random: random, Realistic: realistic}, nil
}

// StreamSpec builds the streaming-aggregator spec covering both testbeds,
// random first (the fold tie-break rank mirrors the retained pipeline's
// random-block-then-realistic-block order).
func (c *Campaign) StreamSpec() analysis.StreamSpec {
	return analysis.StreamSpec{Testbeds: []analysis.TestbedSpec{
		c.Random.SpecEntry(), c.Realistic.SpecEntry(),
	}}
}

// RunStreaming drives both testbeds for the duration, with the hardware
// replacement at the midpoint as in the paper. Every flushEvery of virtual
// time, and once more after the horizon, each node's logs drain into s, so
// the records live on in s's aggregates and pending memory is bounded by
// the flush interval instead of the campaign length. The returned Results
// carry the light parts (names, durations, counters), plus every record
// when KeepRecords is set. The testbeds are independent simulations (each
// owns its kernel, RNG rig, hosts and logs) and s's watermark fold keeps
// the merged record order, so running them concurrently or one after the
// other (Sequential) gives bit-identical aggregates.
func (c *Campaign) RunStreaming(duration, flushEvery sim.Time, s Ingestor) (randomRes, realisticRes *Results) {
	run := func(tb *Testbed) {
		tb.opts.ReplaceHardwareAt, tb.keep = duration/2, c.KeepRecords
		tb.StreamTo(s, flushEvery)
		tb.Run(duration)
		tb.FinishStream(s)
	}
	if c.Sequential {
		run(c.Random)
		run(c.Realistic)
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(c.Random)
		}()
		run(c.Realistic)
		wg.Wait()
	}
	return c.Random.Results(), c.Realistic.Results()
}
