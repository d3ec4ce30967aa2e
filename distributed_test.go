package btpan

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/testbed"
)

// The distributed-plane acceptance suite: N btagent-style shard processes
// (as goroutines around real testbeds) + one sink over loopback TCP must
// reproduce the single-process streaming campaign digit for digit — on a
// clean network, under seeded loss/duplication/reordering, and across a
// sink kill + checkpoint restore. These are the in-process versions of the
// multi-process smoke in scripts/smoke_distributed.sh.

// distributedConfig is the suite's campaign config: the equivalence
// suite's, streaming.
func distributedConfig() CampaignConfig {
	cfg := equivConfig(0)
	cfg.Streaming = true
	return cfg
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
func TestDistributedMatchesStreaming(t *testing.T) {
	agreeFlat(t, distributedConfig(), streamingPlane, distributedPlane(collector.FaultConfig{}))
}

// TestDistributedUnderFaults: same claim with seeded drop/duplicate/reorder
// injection on the data path — retransmission and duplicate filtering must
// hide the lossy network completely, down to zero sequence gaps and
// dropped records.
func TestDistributedUnderFaults(t *testing.T) {
	fault := collector.FaultConfig{Seed: 17, Drop: 0.1, Duplicate: 0.1, Reorder: 0.15}
	agreeFlat(t, distributedConfig(), streamingPlane, distributedPlane(fault))
}

// TestDistributedResume kills the sink mid-campaign (no graceful
// checkpoint) and restarts it from its checkpoint file on the same port;
// the resumed campaign must still match the single-process digits. The
// second shard only starts after the restart, so the kill is guaranteed to
// land mid-campaign.
func TestDistributedResume(t *testing.T) {
	cfg := distributedConfig()
	want := flatBytes(streamingPlane.run(t, cfg))

	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")
	mkSink := func(addr string) *collector.Sink {
		s, err := collector.NewSink(collector.SinkConfig{Addr: addr,
			Keyspaces:       []collector.KeyspaceConfig{{Campaign: cfg.ID(), Spec: testbed.CampaignStreamSpec(), CheckpointPath: cpPath}},
			CheckpointEvery: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sink := mkSink("127.0.0.1:0")
	addr := sink.Addr()
	randomOpts, realisticOpts := testbed.CampaignOptions(cfg.Seed, cfg.Scenario, cfg.Duration)
	ac := collector.AgentConfig{Addr: addr, RetryMin: 20 * time.Millisecond, StallTimeout: 150 * time.Millisecond}
	errs := make(chan error, 2)
	go func() { errs <- runAgent(cfg, randomOpts, ac, 120*time.Second, 0) }()

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

	sink2 := mkSink(addr)
	defer sink2.Close()
	go func() { errs <- runAgent(cfg, realisticOpts, ac, 120*time.Second, 0) }()
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sink2.WaitKeyspace("", 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "distributed+kill/resume vs streaming", want, flatBytes(reportResult(t, cfg, rep)))
}
