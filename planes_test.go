package btpan

import (
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/testbed"
)

// The plane table. A campaign's report can be produced on several planes
// that must agree bit for bit (ARCHITECTURE.md invariants 9, 11 and 12):
// in one process keeping or dropping the records, with its testbeds run
// concurrently or one after the other, on the ARQ slow path, as piconet 0
// of a scatternet, and as agents shipping to a sink over loopback TCP; a
// scatternet's metro roll-up at any shard count, and as district agents
// shipping to a district sink. Each plane below is a function from a
// config to report bytes, built from the code the binaries run (the shard
// runner testbed.RunShard, the district identity ScatternetConfig.District,
// the campaign identity CampaignConfig.ID and the report writers), and
// every cross-plane test is a row over them: run some planes on one
// config and require equal bytes.

// flatPlane is one way to run a two-testbed campaign. Its report bytes are
// flatBytes of the result run returns.
type flatPlane struct {
	name string
	run  func(t *testing.T, cfg CampaignConfig) *CampaignResult
}

var (
	// retainedPlane keeps every record (cfg.Streaming forced off).
	retainedPlane = flatPlane{"retained", func(t *testing.T, cfg CampaignConfig) *CampaignResult {
		cfg.Streaming = false
		return inProcess(t, cfg, false, false)
	}}
	// streamingPlane drops the records once folded (cfg.Streaming forced on).
	streamingPlane = flatPlane{"streaming", func(t *testing.T, cfg CampaignConfig) *CampaignResult {
		cfg.Streaming = true
		return inProcess(t, cfg, false, false)
	}}
	// sequentialPlane runs the realistic testbed after the random one.
	sequentialPlane = flatPlane{"sequential", func(t *testing.T, cfg CampaignConfig) *CampaignResult {
		return inProcess(t, cfg, true, false)
	}}
	// slowPathPlane recomputes every ARQ chunk and attempt probability
	// instead of reading the memo.
	slowPathPlane = flatPlane{"ARQ slow path", func(t *testing.T, cfg CampaignConfig) *CampaignResult {
		return inProcess(t, cfg, false, true)
	}}
	// onePiconetPlane is piconet 0 of a 1-piconet scatternet.
	onePiconetPlane = piconetPlane(1, 0)
)

// flatPlanes is every flat plane, the distributed one under fault.
func flatPlanes(fault collector.FaultConfig) []flatPlane {
	return []flatPlane{retainedPlane, streamingPlane, sequentialPlane, slowPathPlane,
		onePiconetPlane, distributedPlane(fault)}
}

// inProcess runs cfg on a freshly built campaign, its testbeds one after
// the other when sequential and every host's ARQ on the slow path when
// slowPath.
func inProcess(t *testing.T, cfg CampaignConfig, sequential, slowPath bool) *CampaignResult {
	t.Helper()
	var mutate func(string, *stack.Config)
	if slowPath {
		mutate = func(_ string, hc *stack.Config) { hc.ARQ.SlowPath = true }
	}
	c, err := testbed.NewCampaign(cfg.Seed, cfg.Scenario, mutate)
	if err != nil {
		t.Fatal(err)
	}
	c.Sequential = sequential
	res, err := runCampaign(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	checkKeptFig3b(t, res)
	return res
}

// checkKeptFig3b requires a result that kept its records to answer Figure
// 3b from them, through the batch builder, exactly as from the fold.
func checkKeptFig3b(t *testing.T, res *CampaignResult) {
	t.Helper()
	if res.Config.Streaming {
		return
	}
	if got := analysis.Fig3bConnectionAge(res.AllReports(), 1000, 10); !reflect.DeepEqual(got, res.Agg.Fig3bBars()) {
		t.Errorf("Fig 3b from the kept records diverges from the fold:\n%v\n%v", got, res.Agg.Fig3bBars())
	}
}

// piconetPlane is piconet 0 of a scatternet of the given piconets and
// (ring-paired) bridges.
func piconetPlane(piconets, bridges int) flatPlane {
	return flatPlane{fmt.Sprintf("piconet 0 of %d piconets, %d bridges", piconets, bridges),
		func(t *testing.T, cfg CampaignConfig) *CampaignResult {
			t.Helper()
			res, err := RunScatternet(ScatternetConfig{CampaignConfig: cfg,
				Piconets: piconets, Bridges: bridges, HoldTime: 10 * sim.Second})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Piconets) != piconets {
				t.Fatalf("%d-piconet scatternet has %d piconets", piconets, len(res.Piconets))
			}
			checkKeptFig3b(t, res.Piconet(0))
			return res.Piconet(0)
		}}
}

// distributedPlane is two agents, one per testbed, shipping to one sink
// over loopback TCP, each with fault injected on its data frames (the
// realistic one at fault seed + 1, so the shards draw distinct decisions).
func distributedPlane(fault collector.FaultConfig) flatPlane {
	name := "distributed"
	if fault.Active() {
		name = "distributed+faults"
	}
	return flatPlane{name, func(t *testing.T, cfg CampaignConfig) *CampaignResult {
		t.Helper()
		sink, err := collector.NewSink(collector.SinkConfig{Addr: "127.0.0.1:0",
			Keyspaces: []collector.KeyspaceConfig{{Campaign: cfg.ID(), Spec: testbed.CampaignStreamSpec()}}})
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		random, realistic := testbed.CampaignOptions(cfg.Seed, cfg.Scenario, cfg.Duration)
		errs := make(chan error, 2)
		for i, opts := range []testbed.Options{random, realistic} {
			ac := collector.AgentConfig{Addr: sink.Addr(), Fault: fault,
				RetryMin: 20 * time.Millisecond, StallTimeout: 150 * time.Millisecond}
			ac.Fault.Seed += uint64(i)
			go func() { errs <- runAgent(cfg, opts, ac, 120*time.Second, 0) }()
		}
		for range 2 {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sink.WaitKeyspace("", 120*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return reportResult(t, cfg, rep)
	}}
}

// runAgent runs testbed shard opts of campaign cfg through a
// collector.Agent, as cmd/btagent does: the testbed's roster and
// testbed.RunShard, then Finish waiting up to finish for the sink's
// confirmation. ac supplies the transport settings. A fuse above zero
// kills the agent at its fuse-th drain (a killSwitch; Abort leaves only
// the spill log, as kill -9 does) and returns errChaosKill. The error
// names the shard.
func runAgent(cfg CampaignConfig, opts testbed.Options, ac collector.AgentConfig,
	finish time.Duration, fuse int) error {
	flush := cfg.FlushEvery
	if flush == 0 {
		flush = sim.Hour
	}
	err := func() error {
		tb, err := testbed.New(opts)
		if err != nil {
			return err
		}
		ac.Campaign, ac.Testbed, ac.Nodes = cfg.ID(), opts.Name, tb.SpecEntry().Nodes()
		agent, err := collector.NewAgent(ac)
		if err != nil {
			return err
		}
		var in testbed.Ingestor = agent
		if fuse > 0 {
			in = &killSwitch{agent: agent, fuse: fuse}
		}
		counters, err := tb.RunShard(in, cfg.Duration, flush)
		if errors.Is(err, errChaosKill) {
			agent.Abort()
			return err
		}
		defer agent.Close()
		if err != nil {
			return err
		}
		return agent.Finish(counters, cfg.Duration, finish)
	}()
	if err != nil {
		return fmt.Errorf("shard %s: %w", strings.TrimPrefix(ac.Keyspace+"/"+opts.Name, "/"), err)
	}
	return nil
}

// reportResult assembles a sink's (or a merge's) completed report of
// campaign cfg into a CampaignResult.
func reportResult(t *testing.T, cfg CampaignConfig, rep *collector.SinkReport) *CampaignResult {
	t.Helper()
	res, err := ResultFromAggregates(cfg, rep.Agg, rep.Counters, rep.Durations)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// flatBytes renders every output the flat planes must agree on: the
// canonical report and its taxonomy appendix (WriteReport,
// WriteTaxonomyReport), then an exact rendering — %v, so every float in its
// shortest round-trip form — of the dataset sizes, the transport loss
// counters, Tables 2 and 3, the Table 4 column, Figures 3a, 3b, 3c and 4
// and the §6 scalars. Two results' bytes are equal exactly when all of
// those values are.
func flatBytes(res *CampaignResult) string {
	var b strings.Builder
	WriteReport(&b, res)
	WriteTaxonomyReport(&b, res)
	u, s, _ := res.DataItems()
	fmt.Fprintf(&b, "\ndata items %d/%d, sequence gaps %d, dropped records %d\n",
		u, s, res.Agg.SeqGaps, res.Agg.DroppedRecords)
	fmt.Fprintf(&b, "Table 2 %+v\nTable 3 %+v\nTable 4 column %+v\n",
		res.Table2(), res.Table3(), res.Dependability())
	fmt.Fprintf(&b, "Fig 3a %+v\nFig 3b %+v\nFig 3c %+v\nFig 4 %+v\n§6 %+v\n",
		res.Fig3a(), res.Agg.Fig3bBars(), res.Fig3c(), res.Fig4(), res.Scalars())
	return b.String()
}

// agreeFlat runs every plane on cfg and requires each plane's bytes to
// equal the first plane's.
func agreeFlat(t *testing.T, cfg CampaignConfig, planes ...flatPlane) {
	t.Helper()
	want := flatBytes(planes[0].run(t, cfg))
	for _, p := range planes[1:] {
		sameBytes(t, p.name+" vs "+planes[0].name, want, flatBytes(p.run(t, cfg)))
	}
}

// sameBytes fails t when got differs from want, naming the first line
// that differs.
func sameBytes(t *testing.T, label, want, got string) {
	t.Helper()
	if got == want {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w) && i < len(g) && w[i] == g[i] {
		i++
	}
	line := func(ls []string) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<end>"
	}
	t.Errorf("%s: report bytes differ at line %d:\n want %s\n  got %s", label, i+1, line(w), line(g))
}

// metroPlane is one way to run a scatternet campaign with the metro
// roll-up: a function from a config to its metro report bytes
// (metroBytes).
type metroPlane struct {
	name string
	run  func(t *testing.T, cfg ScatternetConfig) string
}

// rollupPlane is the single-process roll-up at the given shard count.
func rollupPlane(shards int) metroPlane {
	return metroPlane{fmt.Sprintf("roll-up, %d shards", shards), func(t *testing.T, cfg ScatternetConfig) string {
		t.Helper()
		cfg.Streaming, cfg.Rollup, cfg.Parallelism = true, true, shards
		res, err := RunScatternet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var red *analysis.RedundancyTable
		if res.Topology.Bridges() > 0 {
			red = res.Redundancy
		}
		return metroBytes(res.Rollup, red, cfg.Duration)
	}}
}

// districtPlane is the campaign's districts (metroDistricts, split at
// piconet split), each run by its own agent shipping to one district sink
// over loopback TCP, with fault injected on district i's data frames at
// fault seed + i.
func districtPlane(split int, fault collector.FaultConfig) metroPlane {
	name := fmt.Sprintf("districts split at %d", split)
	stall := 2 * time.Second
	if fault.Active() {
		name += "+faults"
		stall = 120 * time.Millisecond
	}
	return metroPlane{name, func(t *testing.T, cfg ScatternetConfig) string {
		t.Helper()
		dcs := metroDistricts(t, cfg, split, "")
		sink, err := collector.NewSink(collector.SinkConfig{Addr: "127.0.0.1:0", Districts: dcs})
		if err != nil {
			t.Fatal(err)
		}
		defer sink.Close()
		errs := make(chan error, len(dcs))
		for i, dc := range dcs {
			f := fault
			f.Seed += uint64(i)
			go func() { errs <- districtAgent(cfg, dc, sink.Addr(), stall, f, -1) }()
		}
		for range dcs {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		return districtBytes(t, sink, dcs)
	}}
}

// metroDistricts declares cfg's districts as btsink does, from the
// district identity ScatternetConfig.District: [0, split) and [split, P),
// or one district of every piconet when split is not inside (0, P). With a
// checkpoint directory each district checkpoints there.
func metroDistricts(t *testing.T, cfg ScatternetConfig, split int, ckptDir string) []collector.DistrictConfig {
	t.Helper()
	camp, net, err := cfg.District()
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{{0, net.Piconets}}
	if split > 0 && split < net.Piconets {
		ranges = [][2]int{{0, split}, {split, net.Piconets}}
	}
	dcs := make([]collector.DistrictConfig, 0, len(ranges))
	for i, r := range ranges {
		dc := collector.DistrictConfig{Key: fmt.Sprintf("district%d", i), Campaign: cfg.ID(),
			Net: net, ScenarioName: camp.ScenarioName(), Lo: r[0], Hi: r[1]}
		if ckptDir != "" {
			dc.CheckpointPath = filepath.Join(ckptDir, dc.Key+".district.ckpt")
		}
		dcs = append(dcs, dc)
	}
	return dcs
}

// districtAgent runs district dc of cfg, as cmd/btagent -scatternet does:
// a fresh engine from the district identity, driven over dc's range by a
// collector.ScatterAgent. failAfter >= 0 injects a crash: the engine
// computes that many partials and then errors out, as a kill -9
// mid-range would; a restart re-runs past the sink's resume cursor.
func districtAgent(cfg ScatternetConfig, dc collector.DistrictConfig, addr string,
	stall time.Duration, fault collector.FaultConfig, failAfter int) error {
	camp, _, err := cfg.District()
	if err != nil {
		return err
	}
	run := camp.PiconetPartial
	if failAfter >= 0 {
		calls := 0
		run = func(p int) (*analysis.PiconetPartial, error) {
			if calls >= failAfter {
				return nil, fmt.Errorf("injected crash before piconet %d", p)
			}
			calls++
			return camp.PiconetPartial(p)
		}
	}
	agent, err := collector.NewScatterAgent(collector.ScatterAgentConfig{
		Addr: addr, Keyspace: dc.Key, Campaign: dc.Campaign, Net: dc.Net, Lo: dc.Lo, Hi: dc.Hi,
		RunPiconet: run, RunOverlay: camp.RunOverlay,
		RetryMin: 20 * time.Millisecond, RetryMax: 200 * time.Millisecond,
		RetrySeed: int64(dc.Lo + 1), StallTimeout: stall, Fault: fault,
	})
	if err == nil {
		err = agent.Run()
	}
	if err != nil {
		return fmt.Errorf("district agent %s: %w", dc.Key, err)
	}
	return nil
}

// districtBytes waits for every district of the sink and merges their
// partials into the metro report bytes, as btmerge -scatternet does.
func districtBytes(t *testing.T, sink *collector.Sink, dcs []collector.DistrictConfig) string {
	t.Helper()
	parts := make([]*collector.DistrictPartial, 0, len(dcs))
	for _, dc := range dcs {
		p, err := sink.WaitDistrict(dc.Key, 120*time.Second)
		if err != nil {
			t.Fatalf("district %s: %v", dc.Key, err)
		}
		parts = append(parts, p)
	}
	roll, red, err := collector.MergeDistricts(parts)
	if err != nil {
		t.Fatal(err)
	}
	return metroBytes(roll, red, dcs[0].Campaign.Duration)
}

// metroBytes is the metro report WriteMetroReport renders, with the
// taxonomy appendix, so the metro planes pin the survival plane and the
// partition candidates too.
func metroBytes(roll *analysis.ScatternetRollup, red *analysis.RedundancyTable, duration sim.Time) string {
	var b strings.Builder
	WriteMetroReport(&b, roll, red, duration, true)
	return b.String()
}

// agreeMetro runs every plane on cfg and requires each plane's bytes to
// equal the first plane's.
func agreeMetro(t *testing.T, cfg ScatternetConfig, planes ...metroPlane) {
	t.Helper()
	want := planes[0].run(t, cfg)
	for _, p := range planes[1:] {
		sameBytes(t, p.name+" vs "+planes[0].name, want, p.run(t, cfg))
	}
}

// planeDraws sizes TestPlanesAgreeOnGeneratedConfigs.
var planeDraws = flag.Int("planes.draws", 0,
	"flat and metro configs TestPlanesAgreeOnGeneratedConfigs draws of each (0: 2 with -short, else 4)")

// TestPlanesAgreeOnGeneratedConfigs draws seeded configs and requires every
// plane of the table to produce the same bytes on each. Draw d of either
// kind derives from d alone, so a failing draw replays on its own with the
// command the failure prints.
func TestPlanesAgreeOnGeneratedConfigs(t *testing.T) {
	n := *planeDraws
	if n == 0 {
		n = 4
		if testing.Short() {
			n = 2
		}
	}
	replay := func(t *testing.T, name string, draw any) {
		t.Cleanup(func() {
			if t.Failed() {
				t.Logf("draw %+v\nreplay: go test -run 'TestPlanesAgreeOnGeneratedConfigs/^%s$' -planes.draws=%d .",
					draw, name, n)
			}
		})
	}
	for d := 1; d <= n; d++ {
		t.Run(fmt.Sprintf("flat-%d", d), func(t *testing.T) {
			cfg, fault := drawFlat(uint64(d))
			replay(t, fmt.Sprintf("flat-%d", d), struct {
				CampaignConfig
				Fault collector.FaultConfig
			}{cfg, fault})
			agreeFlat(t, cfg, flatPlanes(fault)...)
		})
		t.Run(fmt.Sprintf("metro-%d", d), func(t *testing.T) {
			cfg, split, fault := drawMetro(uint64(d))
			replay(t, fmt.Sprintf("metro-%d", d), struct {
				ScatternetConfig
				Split int
				Fault collector.FaultConfig
			}{cfg, split, fault})
			agreeMetro(t, cfg, rollupPlane(1), rollupPlane(cfg.Parallelism), districtPlane(split, fault))
		})
	}
}

// drawFlat draws flat config d: seed, scenario 1–4, 2–12 virtual hours,
// a flush cadence of 10 min–12 h, whether the records are kept, and
// drop/duplicate/reorder probabilities of at most 0.15 with their seed.
func drawFlat(d uint64) (CampaignConfig, collector.FaultConfig) {
	r := rand.New(rand.NewPCG(d, 0x666c6174))
	cfg := CampaignConfig{
		Seed:       r.Uint64(),
		Scenario:   Scenario(1 + r.IntN(4)),
		Duration:   between(r, 2*Hour, 12*Hour),
		FlushEvery: between(r, 10*sim.Minute, 12*Hour),
		Streaming:  r.IntN(2) == 0,
	}
	return cfg, drawFault(r)
}

// drawMetro draws metro config d: seed, scenario 1–4, 1–3 virtual hours,
// 1–5 piconets, a topology (the -bridges ring pairing, ring, star, mesh or
// random, with a bridge count each accepts), redundancy 1–2, a probe
// fraction in (0, 1], a 1–30 s hold and 1–3 roll-up shards; the district
// split point (0: one district); and faults as drawFlat draws them.
func drawMetro(d uint64) (ScatternetConfig, int, collector.FaultConfig) {
	r := rand.New(rand.NewPCG(d, 0x6d6574726f))
	p := 1 + r.IntN(5)
	cfg := ScatternetConfig{
		CampaignConfig: CampaignConfig{
			Seed:     r.Uint64(),
			Scenario: Scenario(1 + r.IntN(4)),
			Duration: between(r, Hour, 3*Hour),
			// Parallelism is the roll-up's shard count.
			Parallelism: 1 + r.IntN(3),
		},
		Piconets:    p,
		Topology:    []string{"", TopologyRing, TopologyStar, TopologyMesh, TopologyRandom}[r.IntN(5)],
		Redundancy:  1 + r.IntN(2),
		ProbeSample: 1 - r.Float64(),
		HoldTime:    sim.Time(1+r.IntN(30)) * sim.Second,
	}
	switch {
	case p == 1:
	case cfg.Topology == "":
		cfg.Bridges = r.IntN(p + 1)
	case cfg.Topology == TopologyRandom:
		cfg.Bridges = p - 1 + r.IntN(3)
	}
	return cfg, r.IntN(p), drawFault(r)
}

// drawFault draws drop, duplicate and reorder probabilities of at most
// 0.15 and the fault seed.
func drawFault(r *rand.Rand) collector.FaultConfig {
	return collector.FaultConfig{Seed: r.Uint64(),
		Drop: 0.15 * r.Float64(), Duplicate: 0.15 * r.Float64(), Reorder: 0.15 * r.Float64()}
}

// between draws a virtual time in [lo, hi].
func between(r *rand.Rand, lo, hi sim.Time) sim.Time {
	return lo + sim.Time(r.Int64N(int64(hi-lo)+1))
}
