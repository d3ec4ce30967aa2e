package collector

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The transport suite runs real agent/sink sessions over loopback TCP
// against synthetic record streams and pins the plane's core promise: the
// sink's aggregates are bit-identical to feeding the same batches into a
// local analysis.Streamer — with a clean network, under seeded
// drop/duplicate/reorder injection, and across a kill-and-restore of the
// sink process state.

// tpSpec declares the synthetic campaign: two testbeds, five streams.
func tpSpec() analysis.StreamSpec {
	return analysis.StreamSpec{Testbeds: []analysis.TestbedSpec{
		{Name: "alpha", Kind: core.WLRandom, NAP: "napA", PANUs: []string{"a1", "a2"}},
		{Name: "beta", Kind: core.WLRealistic, NAP: "napB", PANUs: []string{"b1"}},
	}}
}

// tpBatch is one synthetic shipment (without its sequence number, which the
// agent assigns).
type tpBatch struct {
	testbed, node string
	reports       []core.UserReport
	entries       []core.SystemEntry
	watermark     sim.Time
}

// tpBatches generates hourly flushes for every stream of tpSpec,
// deterministic and time-ordered per stream.
func tpBatches(hours int) []tpBatch {
	rng := uint64(0x853C49E6748FEA9B)
	next := func(mod uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % mod
	}
	type stream struct {
		testbed, node string
		isNAP         bool
	}
	streams := []stream{
		{"alpha", "a1", false}, {"alpha", "a2", false}, {"alpha", "napA", true},
		{"beta", "b1", false}, {"beta", "napB", true},
	}
	failures := core.UserFailures()
	var out []tpBatch
	for h := 1; h <= hours; h++ {
		wm := sim.Time(h) * sim.Hour
		start := wm - sim.Hour
		for _, st := range streams {
			b := tpBatch{testbed: st.testbed, node: st.node, watermark: wm}
			t := start
			for i, n := 0, int(next(3)); i < n; i++ {
				t += sim.Time(next(uint64(sim.Hour / 3)))
				if t >= wm {
					break
				}
				b.entries = append(b.entries, core.SystemEntry{
					At: t, Testbed: st.testbed, Node: st.node,
					Source: core.SysSource(1 + next(7)), Code: core.ErrorCode(next(5)),
				})
			}
			if !st.isNAP {
				t = start + sim.Second
				for i, m := 0, int(next(3)); i < m; i++ {
					t += sim.Time(next(uint64(sim.Hour / 3)))
					if t >= wm {
						break
					}
					r := core.UserReport{
						At: t, Testbed: st.testbed, Node: st.node,
						Failure:   failures[next(uint64(len(failures)))],
						SentPkts:  int(next(9000)),
						DistanceM: []float64{1, 5, 10}[next(3)],
					}
					if next(3) > 0 {
						r.Recovered = true
						r.Recovery = core.RecoveryAction(1 + next(uint64(core.NumRecoveryActions)))
						r.TTR = sim.Time(1+next(30)) * sim.Second
					}
					b.reports = append(b.reports, r)
				}
			}
			out = append(out, b)
		}
	}
	return out
}

// tpLocal folds the batch sequence through a local streamer: the
// single-process reference the distributed plane must match digit for digit.
func tpLocal(t *testing.T, batches []tpBatch) *analysis.AggregatesSnapshot {
	t.Helper()
	s, err := analysis.NewStreamer(tpSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := s.Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
	}
	return s.Finalize().Snapshot()
}

// tpCounters builds a deterministic counters snapshot for one node.
func tpCounters(node string) *workload.CountersSnapshot {
	c := workload.NewCounters()
	c.Cycles = len(node) * 7
	c.Connections = len(node) * 3
	c.Failures[core.UFPacketLoss] = len(node)
	var s stats.Summary
	s.Add(1.5)
	s.Add(float64(len(node)))
	c.IdleBeforeFailed = s
	return c.Snapshot()
}

// tpAgents ships the batches through one agent per testbed and finishes
// both. Returns the agents for stats inspection (already finished).
func tpAgents(t *testing.T, addr string, batches []tpBatch, fault FaultConfig) []*Agent {
	t.Helper()
	spec := tpSpec()
	agents := make([]*Agent, 0, len(spec.Testbeds))
	for i, tb := range spec.Testbeds {
		cfg := AgentConfig{
			Addr: addr, Testbed: tb.Name,
			Nodes:        append(append([]string{}, tb.PANUs...), tb.NAP),
			Fault:        fault,
			RetryMin:     20 * time.Millisecond,
			StallTimeout: 100 * time.Millisecond,
		}
		cfg.Fault.Seed = fault.Seed + uint64(i) // distinct decision sequences
		a, err := NewAgent(cfg)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
	}
	byName := map[string]*Agent{"alpha": agents[0], "beta": agents[1]}
	for _, b := range batches {
		if err := byName[b.testbed].Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range spec.Testbeds {
		counters := make(map[string]*workload.CountersSnapshot)
		for _, node := range tb.PANUs {
			counters[node] = tpCounters(node)
		}
		if err := byName[tb.Name].Finish(counters, 24*sim.Hour, 30*time.Second); err != nil {
			t.Fatalf("finish %s: %v", tb.Name, err)
		}
	}
	return agents
}

// TestAgentSinkLoopback: clean network, no checkpointing.
func TestAgentSinkLoopback(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)

	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	agents := tpAgents(t, sink.Addr(), batches, FaultConfig{})
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	rep, err := sink.WaitKeyspace("", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Errorf("distributed aggregates diverge from local streamer")
	}
	if rep.Counters["alpha"]["a1"].Cycles != tpCounters("a1").Cycles {
		t.Errorf("counters did not survive the Done frame")
	}
	if d := rep.Durations["beta"]; d != 24*sim.Hour {
		t.Errorf("duration did not survive the Done frame: %v", d)
	}
}

// TestAgentSinkUnderFaults: seeded loss, duplication and reordering on the
// data path; retransmission and duplicate filtering must still converge to
// the exact local aggregates.
func TestAgentSinkUnderFaults(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)

	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	fault := FaultConfig{Seed: 99, Drop: 0.15, Duplicate: 0.15, Reorder: 0.2}
	agents := tpAgents(t, sink.Addr(), batches, fault)
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	rep, err := sink.WaitKeyspace("", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Errorf("aggregates under fault injection diverge from local streamer")
	}
	retrans := 0
	for _, a := range agents {
		_, r := a.Stats()
		retrans += r
	}
	if retrans == 0 {
		t.Errorf("fault injection at 15%% drop caused no retransmissions — injector inactive?")
	}
	if rep.Agg.SeqGaps != 0 || rep.Agg.DroppedRecords != 0 {
		t.Errorf("loss leaked into the aggregates: %d gaps, %d dropped records",
			rep.Agg.SeqGaps, rep.Agg.DroppedRecords)
	}
}

// TestSinkCheckpointResume kills the sink mid-campaign (no graceful final
// checkpoint) and restarts it from the checkpoint file on the same port:
// the agents reconnect, resume from the Resume cursors, and the completed
// campaign matches the local reference digit for digit.
func TestSinkCheckpointResume(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)
	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")

	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces:       []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: cpPath}},
		CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	addr := sink.Addr()

	spec := tpSpec()
	agents := make(map[string]*Agent)
	for _, tb := range spec.Testbeds {
		a, err := NewAgent(AgentConfig{
			Addr: addr, Testbed: tb.Name,
			Nodes:        append(append([]string{}, tb.PANUs...), tb.NAP),
			RetryMin:     20 * time.Millisecond,
			StallTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[tb.Name] = a
		defer a.Close()
	}

	// First half of the campaign, then wait for a checkpoint to exist.
	half := len(batches) / 2
	for _, b := range batches[:half] {
		if err := agents[b.testbed].Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		applied, _, _ := sink.Stats()
		if _, err := os.Stat(cpPath); err == nil && applied >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint after 10s (%d applied)", applied)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := sink.Abort(); err != nil { // SIGKILL double: no final checkpoint
		t.Fatal(err)
	}

	sink2, err := NewSink(SinkConfig{Addr: addr,
		Keyspaces:       []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: cpPath}},
		CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()

	// Second half plus Done; the agents retransmit whatever the checkpoint
	// missed.
	for _, b := range batches[half:] {
		if err := agents[b.testbed].Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range spec.Testbeds {
		counters := make(map[string]*workload.CountersSnapshot)
		for _, node := range tb.PANUs {
			counters[node] = tpCounters(node)
		}
		if err := agents[tb.Name].Finish(counters, 24*sim.Hour, 30*time.Second); err != nil {
			t.Fatalf("finish %s after resume: %v", tb.Name, err)
		}
	}
	rep, err := sink2.WaitKeyspace("", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Errorf("kill-and-resume aggregates diverge from local streamer")
	}
	if rep.Counters["beta"]["b1"] == nil {
		t.Errorf("counters lost across the resume")
	}
}

// TestSinkLostCheckpointDetected: a sink that comes back EMPTY (checkpoint
// gone) must be refused by agents that already had batches acknowledged —
// silent truncation is the one unrecoverable failure and has to be loud.
func TestSinkLostCheckpointDetected(t *testing.T) {
	batches := tpBatches(8)
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec()}}})
	if err != nil {
		t.Fatal(err)
	}
	addr := sink.Addr()
	spec := tpSpec()
	a, err := NewAgent(AgentConfig{
		Addr: addr, Testbed: "alpha",
		Nodes:        append(append([]string{}, spec.Testbeds[0].PANUs...), spec.Testbeds[0].NAP),
		RetryMin:     20 * time.Millisecond,
		StallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for _, b := range batches {
		if b.testbed != "alpha" {
			continue
		}
		if err := a.Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the sink acknowledged something (agent pruned its buffer).
	deadline := time.Now().Add(10 * time.Second)
	for {
		applied, _, _ := sink.Stats()
		if applied >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never applied batches")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // let acks land
	sink.Abort()

	// An amnesiac sink on the same port.
	sink2, err := NewSink(SinkConfig{Addr: addr,
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink2.Close()
	deadline = time.Now().Add(10 * time.Second)
	for a.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("agent accepted a sink that lost acknowledged data")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCampaignMismatchRejected: an agent of a different campaign (same node
// names — node lists cannot tell campaigns apart) must be refused at the
// handshake and fail loudly instead of merging silently or retrying
// forever. A stale checkpoint from a different campaign must likewise be
// refused at sink startup.
func TestCampaignMismatchRejected(t *testing.T) {
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec(), Campaign: CampaignID{Seed: 1, Duration: 24 * sim.Hour, Scenario: 3}}}})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	spec := tpSpec()
	a, err := NewAgent(AgentConfig{
		Addr:     sink.Addr(),
		Campaign: CampaignID{Seed: 2, Duration: 24 * sim.Hour, Scenario: 3},
		Testbed:  "alpha",
		Nodes:    append(append([]string{}, spec.Testbeds[0].PANUs...), spec.Testbeds[0].NAP),
		RetryMin: 20 * time.Millisecond, StallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	deadline := time.Now().Add(10 * time.Second)
	for a.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("agent with a mismatched campaign was not refused")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Checkpoint guard: a file recorded under campaign seed 1 must refuse
	// to serve a sink configured for seed 2.
	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")
	cp1, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces:       []KeyspaceConfig{{Spec: tpSpec(), Campaign: CampaignID{Seed: 1, Duration: 24 * sim.Hour, Scenario: 3}, CheckpointPath: cpPath}},
		CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp1.Close(); err != nil { // graceful close writes a checkpoint
		t.Fatal(err)
	}
	if _, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []KeyspaceConfig{{Spec: tpSpec(), Campaign: CampaignID{Seed: 2, Duration: 24 * sim.Hour, Scenario: 3}, CheckpointPath: cpPath}}}); err == nil {
		t.Fatal("sink accepted a checkpoint from a different campaign")
	}
}

// TestFaultInjectorDeterministic pins that the same seed yields the same
// decision sequence.
func TestFaultInjectorDeterministic(t *testing.T) {
	cfg := FaultConfig{Seed: 7, Drop: 0.3, Duplicate: 0.2, Reorder: 0.2}
	run := func() []int {
		inj := newFaultInjector(cfg)
		var counts []int
		frame := []byte{0, 0, 0, 1, 0}
		for i := 0; i < 200; i++ {
			out, _ := inj.apply(frame)
			counts = append(counts, len(out))
		}
		if h := inj.flush(); h != nil {
			counts = append(counts, -1)
		}
		return counts
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("fault decisions differ across runs with the same seed")
	}
	if inj := newFaultInjector(FaultConfig{}); inj != nil {
		t.Error("inactive fault config built an injector")
	}
}

// TestAgentConfigLimits pins that both agents refuse an out-of-range fault
// config and the flat agent a negative spill budget, naming the flag.
func TestAgentConfigLimits(t *testing.T) {
	bad := FaultConfig{Reorder: 1.5}
	if _, err := NewAgent(AgentConfig{Addr: "x", Testbed: "tb", Nodes: []string{"n"}, Fault: bad}); err == nil ||
		err.Error() != "-reorder 1.5 outside [0, 1]" {
		t.Errorf("NewAgent with reorder 1.5: %v", err)
	}
	if _, err := NewAgent(AgentConfig{Addr: "x", Testbed: "tb", Nodes: []string{"n"}, SpillBudget: -1}); err == nil ||
		err.Error() != "-spill-budget -1 is negative (0 is unbounded)" {
		t.Errorf("NewAgent with spill budget -1: %v", err)
	}
	run := func(int) (*analysis.PiconetPartial, error) { return nil, nil }
	if _, err := NewScatterAgent(ScatterAgentConfig{Addr: "x", Lo: 0, Hi: 1, RunPiconet: run,
		Fault: FaultConfig{Delay: -time.Second}}); err == nil || err.Error() != "-delay -1s is negative" {
		t.Errorf("NewScatterAgent with delay -1s: %v", err)
	}
}
