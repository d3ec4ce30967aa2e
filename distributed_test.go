package btpan

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// The distributed-plane acceptance suite: N btagent-style shard processes
// (as goroutines around real testbeds) + one sink over loopback TCP must
// reproduce the single-process streaming campaign digit for digit — on a
// clean network, under seeded loss/duplication/reordering, and across a
// sink kill + checkpoint restore. These are the in-process versions of the
// multi-process smoke in scripts/smoke_distributed.sh.

// shardErr carries one shard's terminal error.
type shardErr struct {
	name string
	err  error
}

// campaignID derives the handshake identity from a campaign config.
func campaignID(cfg CampaignConfig) collector.CampaignID {
	return collector.CampaignID{Seed: cfg.Seed, Duration: cfg.Duration,
		Scenario: int(cfg.Scenario)}
}

// runShard runs one testbed shard against the sink at addr, exactly as
// cmd/btagent does: build the testbed from the campaign options, stream its
// drains through a collector.Agent shipping codec frames, then Finish with
// the counters.
func runShard(opts testbed.Options, campaign collector.CampaignID, addr string,
	duration, flush sim.Time, codec collector.Codec, fault collector.FaultConfig, errs chan<- shardErr) {
	tb, err := testbed.New(opts)
	if err != nil {
		errs <- shardErr{opts.Name, err}
		return
	}
	nodes := make([]string, 0, len(tb.PANUs)+1)
	for _, h := range tb.PANUs {
		nodes = append(nodes, h.Node)
	}
	nodes = append(nodes, tb.NAP.Node)
	agent, err := collector.NewAgent(collector.AgentConfig{
		Addr: addr, Campaign: campaign, Testbed: opts.Name, Nodes: nodes, Codec: codec, Fault: fault,
		RetryMin: 20 * time.Millisecond, StallTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		errs <- shardErr{opts.Name, err}
		return
	}
	defer agent.Close()
	tb.StreamTo(agent, flush)
	tb.Run(duration)
	tb.FinishStream(agent)
	res := tb.Results()
	counters := make(map[string]*workload.CountersSnapshot, len(res.Counters))
	for node, c := range res.Counters {
		counters[node] = c.Snapshot()
	}
	errs <- shardErr{opts.Name, agent.Finish(counters, duration, 120*time.Second)}
}

// distributedConfig is the suite's campaign config (mirrors runEquiv).
func distributedConfig() CampaignConfig {
	return CampaignConfig{Seed: 7, Duration: equivDuration(),
		Scenario: ScenarioSIRAsMasking, Streaming: true}
}

// assembleDistributed turns a completed sink report into a CampaignResult.
func assembleDistributed(t *testing.T, cfg CampaignConfig, sink *collector.Sink,
	timeout time.Duration) *CampaignResult {
	t.Helper()
	rep, err := sink.WaitKeyspace("", timeout)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResultFromAggregates(cfg, rep.Agg, rep.Counters, rep.Durations)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runDistributed runs the full N-agent + sink campaign over loopback; the
// realistic shard ships realisticCodec frames, the random shard binary ones.
func runDistributed(t *testing.T, cfg CampaignConfig, realisticCodec collector.Codec,
	fault collector.FaultConfig) *CampaignResult {
	t.Helper()
	sink, err := collector.NewSink(collector.SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []collector.KeyspaceConfig{{Campaign: campaignID(cfg), Spec: testbed.CampaignStreamSpec()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	randomOpts, realisticOpts := testbed.CampaignOptions(cfg.Seed, cfg.Scenario, cfg.Duration)
	errs := make(chan shardErr, 2)
	faultB := fault
	if faultB.Active() {
		faultB.Seed = fault.Seed + 1 // distinct decision sequences per shard
	}
	go runShard(randomOpts, campaignID(cfg), sink.Addr(), cfg.Duration, sim.Hour,
		collector.CodecBinary, fault, errs)
	go runShard(realisticOpts, campaignID(cfg), sink.Addr(), cfg.Duration, sim.Hour,
		realisticCodec, faultB, errs)
	for i := 0; i < 2; i++ {
		if e := <-errs; e.err != nil {
			t.Fatalf("shard %s: %v", e.name, e.err)
		}
	}
	return assembleDistributed(t, cfg, sink, 120*time.Second)
}

// TestCampaignStreamSpecMatchesCampaign pins that the sink-side spec helper
// (no hosts built) is exactly the campaign's own spec.
func TestCampaignStreamSpecMatchesCampaign(t *testing.T) {
	c, err := testbed.NewCampaign(3, ScenarioSIRAs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := testbed.CampaignStreamSpec(), c.StreamSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CampaignStreamSpec diverges from Campaign.StreamSpec:\n%+v\nvs\n%+v", got, want)
	}
}

// TestDistributedMatchesStreaming: 2 agents + 1 sink over loopback, clean
// network, equals the single-process streaming campaign digit for digit.
// The realistic agent ships JSON frames and the random one binary frames,
// so the sink folds both codecs in one campaign.
func TestDistributedMatchesStreaming(t *testing.T) {
	cfg := distributedConfig()
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runDistributed(t, cfg, collector.CodecJSON, collector.FaultConfig{})
	compareOutputs(t, "distributed", want, got)
}

// TestDistributedUnderFaults: same claim with seeded drop/duplicate/reorder
// injection on the data path — retransmission and duplicate filtering must
// hide the lossy network completely.
func TestDistributedUnderFaults(t *testing.T) {
	cfg := distributedConfig()
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fault := collector.FaultConfig{Seed: 17, Drop: 0.1, Duplicate: 0.1, Reorder: 0.15}
	got := runDistributed(t, cfg, collector.CodecBinary, fault)
	compareOutputs(t, "distributed+faults", want, got)
	if got.Agg.SeqGaps != 0 || got.Agg.DroppedRecords != 0 {
		t.Errorf("injected loss leaked into the aggregates: %d gaps, %d dropped",
			got.Agg.SeqGaps, got.Agg.DroppedRecords)
	}
}

// TestDistributedResume kills the sink mid-campaign (no graceful
// checkpoint) and restarts it from its checkpoint file on the same port;
// the resumed campaign must still match the single-process digits. The
// second shard only starts after the restart, so the kill is guaranteed to
// land mid-campaign.
func TestDistributedResume(t *testing.T) {
	cfg := distributedConfig()
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")
	sink, err := collector.NewSink(collector.SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces:       []collector.KeyspaceConfig{{Campaign: campaignID(cfg), Spec: testbed.CampaignStreamSpec(), CheckpointPath: cpPath}},
		CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	addr := sink.Addr()
	randomOpts, realisticOpts := testbed.CampaignOptions(cfg.Seed, cfg.Scenario, cfg.Duration)
	errs := make(chan shardErr, 2)
	go runShard(randomOpts, campaignID(cfg), addr, cfg.Duration, sim.Hour, collector.CodecBinary, collector.FaultConfig{}, errs)

	// Kill the sink once it has demonstrably checkpointed mid-stream.
	deadline := time.Now().Add(60 * time.Second)
	for {
		applied, _, _ := sink.Stats()
		if _, statErr := os.Stat(cpPath); statErr == nil && applied >= 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink never checkpointed (%d applied)", applied)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sink.Abort(); err != nil {
		t.Fatal(err)
	}

	sink2, err := collector.NewSink(collector.SinkConfig{Addr: addr,
		Keyspaces:       []collector.KeyspaceConfig{{Campaign: campaignID(cfg), Spec: testbed.CampaignStreamSpec(), CheckpointPath: cpPath}},
		CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()
	go runShard(realisticOpts, campaignID(cfg), addr, cfg.Duration, sim.Hour, collector.CodecBinary, collector.FaultConfig{}, errs)
	for i := 0; i < 2; i++ {
		if e := <-errs; e.err != nil {
			t.Fatalf("shard %s: %v", e.name, e.err)
		}
	}
	got := assembleDistributed(t, cfg, sink2, 120*time.Second)
	compareOutputs(t, "distributed+kill/resume", want, got)
}
