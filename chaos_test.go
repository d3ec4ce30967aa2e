package btpan

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// The chaos suite: repeatedly SIGKILL every process of the distributed
// plane — both agents (in-process Abort, abandoning everything but the
// spill log) and the sink (Abort, abandoning everything but the
// checkpoint) — on a deterministic schedule, under fault injection, and
// demand the finished campaign stay byte-identical to the single-process
// streaming run. This is ARCHITECTURE.md invariant 9 extended to agent
// crashes; scripts/chaos_distributed.sh is the real-process version.

// errChaosKill is the sentinel a killSwitch throws through the testbed's
// drain panic to emulate kill -9 at an exact ingest count.
var errChaosKill = errors.New("chaos: scheduled agent kill")

// killSwitch wraps an agent's Ingestor surface and fails the fuse-th
// drain, so each incarnation of a shard dies at a deterministic point
// mid-campaign.
type killSwitch struct {
	agent *collector.Agent
	fuse  int
}

// Ingest forwards drains to the agent until the fuse runs out.
func (k *killSwitch) Ingest(testbed, node string, reports []core.UserReport,
	entries []core.SystemEntry, watermark sim.Time) error {
	k.fuse--
	if k.fuse < 0 {
		return errChaosKill
	}
	return k.agent.Ingest(testbed, node, reports, entries, watermark)
}

// runChaosShard runs one shard through len(kills) kill-and-restart
// incarnations plus a final run to completion. Every incarnation rebuilds
// the testbed from scratch — the deterministic re-run a restarted btagent
// performs — and shares ac's spill directory, so each restart replays the
// previous life's unacknowledged tail and skips what the WAL already
// covers. kills[i] is the ingest count at which incarnation i dies.
func runChaosShard(cfg CampaignConfig, opts testbed.Options, ac collector.AgentConfig, kills []int) error {
	for _, fuse := range kills {
		ac.RetrySeed = uint64(fuse) + 1
		if err := runAgent(cfg, opts, ac, 120*time.Second, fuse); !errors.Is(err, errChaosKill) {
			return fmt.Errorf("shard %s: incarnation with fuse %d did not die on schedule: %v",
				opts.Name, fuse, err)
		}
	}
	ac.RetrySeed = 1
	return runAgent(cfg, opts, ac, 120*time.Second, 0)
}

// TestChaosAgentSinkKillStorm kills both agents three times each (at
// staggered deterministic ingest counts, under drop/duplicate/reorder
// injection) and the sink twice, all mid-campaign, then lets the survivors
// finish. The assembled report must match the uninterrupted single-process
// streaming campaign digit for digit: the WAL, the sink checkpoint, the
// resume handshake and the duplicate filter together make a kill storm
// invisible in the data.
func TestChaosAgentSinkKillStorm(t *testing.T) {
	cfg := distributedConfig()
	want := flatBytes(streamingPlane.run(t, cfg))

	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")
	mkSink := func(addr string) *collector.Sink {
		s, err := collector.NewSink(collector.SinkConfig{Addr: addr,
			Keyspaces:       []collector.KeyspaceConfig{{Campaign: cfg.ID(), Spec: testbed.CampaignStreamSpec(), CheckpointPath: cpPath}},
			CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sink := mkSink("127.0.0.1:0")
	addr := sink.Addr()

	randomOpts, realisticOpts := testbed.CampaignOptions(cfg.Seed, cfg.Scenario, cfg.Duration)
	ac := collector.AgentConfig{Addr: addr, SpillDir: t.TempDir(),
		Fault:    collector.FaultConfig{Seed: 23, Drop: 0.1, Duplicate: 0.1, Reorder: 0.15},
		RetryMin: 10 * time.Millisecond, RetryMax: 200 * time.Millisecond,
		StallTimeout: 150 * time.Millisecond}
	acB := ac
	acB.Fault.Seed++
	errs := make(chan error, 2)
	// Each shard dies after 5, then 17, then 29 ingests; the counts rise so
	// every incarnation makes progress past its predecessor, and the
	// stagger between shards keeps the kills unsynchronized.
	go func() { errs <- runChaosShard(cfg, randomOpts, ac, []int{5, 17, 29}) }()
	go func() { errs <- runChaosShard(cfg, realisticOpts, acB, []int{9, 21, 33}) }()

	// Meanwhile, kill the sink twice under the storm, restarting it from
	// its checkpoint on the same port each time.
	for round := 0; round < 2; round++ {
		deadline := time.Now().Add(60 * time.Second)
		for {
			if applied, _, _ := sink.Stats(); applied >= 8 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sink round %d never applied enough to be worth killing", round)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := sink.Abort(); err != nil {
			t.Fatal(err)
		}
		sink = mkSink(addr)
	}
	defer sink.Close()

	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sink.WaitKeyspace("", 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The bytes carry the sequence-gap and dropped-record counters, so the
	// storm must not leak into the aggregates either.
	sameBytes(t, "chaos kill storm vs streaming", want, flatBytes(reportResult(t, cfg, rep)))
}
