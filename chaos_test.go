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
	"repro/internal/workload"
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
// performs — and shares one spill directory, so each restart replays the
// previous life's unacknowledged tail and skips what the WAL already
// covers. kills[i] is the ingest count at which incarnation i dies.
func runChaosShard(opts testbed.Options, campaign collector.CampaignID, addr string,
	duration, flush sim.Time, fault collector.FaultConfig, spillDir string,
	kills []int, errs chan<- shardErr) {
	attempt := func(fuse int) error {
		tb, err := testbed.New(opts)
		if err != nil {
			return err
		}
		nodes := make([]string, 0, len(tb.PANUs)+1)
		for _, h := range tb.PANUs {
			nodes = append(nodes, h.Node)
		}
		nodes = append(nodes, tb.NAP.Node)
		agent, err := collector.NewAgent(collector.AgentConfig{
			Addr: addr, Campaign: campaign, Testbed: opts.Name, Nodes: nodes,
			Fault: fault, SpillDir: spillDir,
			RetryMin: 10 * time.Millisecond, RetryMax: 200 * time.Millisecond,
			RetrySeed:    uint64(fuse) + 1,
			StallTimeout: 150 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		killed := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					if e, ok := r.(error); ok && errors.Is(e, errChaosKill) {
						killed = true
						return
					}
					panic(r)
				}
			}()
			var sink testbed.Ingestor = agent
			if fuse > 0 {
				sink = &killSwitch{agent: agent, fuse: fuse}
			}
			tb.StreamTo(sink, flush)
			tb.Run(duration)
			tb.FinishStream(sink)
		}()
		if killed {
			agent.Abort() // kill -9 double: only the spill log survives
			return errChaosKill
		}
		res := tb.Results()
		counters := make(map[string]*workload.CountersSnapshot, len(res.Counters))
		for node, c := range res.Counters {
			counters[node] = c.Snapshot()
		}
		err = agent.Finish(counters, duration, 120*time.Second)
		agent.Close()
		return err
	}
	for _, fuse := range kills {
		if err := attempt(fuse); !errors.Is(err, errChaosKill) {
			errs <- shardErr{opts.Name, fmt.Errorf("incarnation with fuse %d did not die on schedule: %v",
				fuse, err)}
			return
		}
	}
	errs <- shardErr{opts.Name, attempt(0)}
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
	want, err := RunCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")
	spill := t.TempDir()
	mkSink := func(addr string) *collector.Sink {
		s, err := collector.NewSink(collector.SinkConfig{Addr: addr,
			Keyspaces:       []collector.KeyspaceConfig{{Campaign: campaignID(cfg), Spec: testbed.CampaignStreamSpec(), CheckpointPath: cpPath}},
			CheckpointEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sink := mkSink("127.0.0.1:0")
	addr := sink.Addr()

	randomOpts, realisticOpts := testbed.CampaignOptions(cfg.Seed, cfg.Scenario, cfg.Duration)
	fault := collector.FaultConfig{Seed: 23, Drop: 0.1, Duplicate: 0.1, Reorder: 0.15}
	faultB := fault
	faultB.Seed++
	errs := make(chan shardErr, 2)
	// Each shard dies after 5, then 17, then 29 ingests; the counts rise so
	// every incarnation makes progress past its predecessor, and the
	// stagger between shards keeps the kills unsynchronized.
	go runChaosShard(randomOpts, campaignID(cfg), addr, cfg.Duration, sim.Hour,
		fault, spill, []int{5, 17, 29}, errs)
	go runChaosShard(realisticOpts, campaignID(cfg), addr, cfg.Duration, sim.Hour,
		faultB, spill, []int{9, 21, 33}, errs)

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

	for i := 0; i < 2; i++ {
		if e := <-errs; e.err != nil {
			t.Fatalf("shard %s: %v", e.name, e.err)
		}
	}
	got := assembleDistributed(t, cfg, sink, 120*time.Second)
	compareOutputs(t, "chaos kill storm", want, got)
	if got.Agg.SeqGaps != 0 || got.Agg.DroppedRecords != 0 {
		t.Errorf("the kill storm leaked into the aggregates: %d gaps, %d dropped",
			got.Agg.SeqGaps, got.Agg.DroppedRecords)
	}
}
