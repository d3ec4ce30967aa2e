package collector

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The WAL and torn-write suite: the agent's spill log must replay exactly
// the unacknowledged tail after any kill point (including a tear inside the
// final record), and the guard-trailer checkpoint files must reject
// truncation at every byte boundary rather than resume from garbage.

// walTestFrame encodes a minimal batch frame for stream node/seq.
func walTestFrame(t *testing.T, node string, seq uint64) []byte {
	t.Helper()
	raw, err := encodeBatchFrame(&Batch{Node: node, Testbed: "alpha",
		Watermark: sim.Time(seq) * sim.Hour, Seq: seq})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWALReplayTornTail truncates a spill log at every byte boundary and
// reopens it: whatever the cut, replay must recover a consistent prefix —
// contiguous unacknowledged frames acked+1..last, never garbage, never an
// error — and the truncated file must keep accepting appends. The full
// file must recover the exact pre-kill state.
func TestWALReplayTornTail(t *testing.T) {
	campaign := CampaignID{Seed: 3, Duration: 24 * sim.Hour, Scenario: 3}
	dir := t.TempDir()
	w, streams, err := openWAL(dir, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.ackEvery = 1 // record the ack eagerly so the cut sweep crosses all three record types
	if len(streams) != 0 {
		t.Fatalf("fresh WAL replayed %d streams", len(streams))
	}
	var frames [][]byte
	for seq := uint64(1); seq <= 3; seq++ {
		raw := walTestFrame(t, "a1", seq)
		frames = append(frames, raw)
		if err := w.appendFrame(raw, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.noteAck("a1", 1, walRecordSize(len(frames[0]))); err != nil {
		t.Fatal(err)
	}
	w.close()
	blob, err := os.ReadFile(walPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(blob); cut++ {
		cutDir := t.TempDir()
		if err := os.WriteFile(walPath(cutDir, "alpha"), blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, streams, err := openWAL(cutDir, "alpha", campaign, 0)
		if err != nil {
			t.Fatalf("cut %d: replay failed: %v", cut, err)
		}
		st := streams["a1"]
		if st == nil {
			st = &walStream{}
		}
		if st.acked > st.last {
			t.Fatalf("cut %d: acked %d above last %d", cut, st.acked, st.last)
		}
		if st.last > 3 || st.acked > 1 {
			t.Fatalf("cut %d: replay invented state (last %d, acked %d)", cut, st.last, st.acked)
		}
		for i, f := range st.frames {
			want := st.acked + 1 + uint64(i)
			if f.batch.Seq != want {
				t.Fatalf("cut %d: frame %d has seq %d, want %d", cut, i, f.batch.Seq, want)
			}
			if !reflect.DeepEqual(f.raw, frames[f.batch.Seq-1]) {
				t.Fatalf("cut %d: frame %d bytes differ from the original append", cut, f.batch.Seq)
			}
		}
		if n := len(st.frames); st.last != st.acked+uint64(n) {
			t.Fatalf("cut %d: %d frames do not span acked %d..last %d", cut, n, st.acked, st.last)
		}
		// The recovered log must still be appendable.
		if err := w2.appendFrame(walTestFrame(t, "a1", st.last+1), true); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		w2.close()
	}

	// The untouched file recovers the exact pre-kill state.
	_, streams, err = openWAL(dir, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := streams["a1"]
	if st == nil || st.last != 3 || st.acked != 1 || len(st.frames) != 2 {
		t.Fatalf("full replay diverged: %+v", st)
	}
}

// TestWALReplayStopsAtJSONFrame: a spill log holding a kind-1 frame of the
// retired JSON codec replays only the frames before it, and the log is cut
// back there like a torn tail, so the shard's re-run regenerates the rest.
func TestWALReplayStopsAtJSONFrame(t *testing.T) {
	campaign := CampaignID{Seed: 3, Duration: 24 * sim.Hour, Scenario: 3}
	dir := t.TempDir()
	w, _, err := openWAL(dir, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	json3 := jsonBatchFrame(t, &Batch{Node: "a1", Testbed: "alpha", Watermark: 3 * sim.Hour, Seq: 3})
	for _, raw := range [][]byte{walTestFrame(t, "a1", 1), walTestFrame(t, "a1", 2), json3, walTestFrame(t, "a1", 4)} {
		if err := w.appendFrame(raw, true); err != nil {
			t.Fatal(err)
		}
	}
	w.close()
	_, streams, err := openWAL(dir, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := streams["a1"]; st == nil || st.last != 2 || len(st.frames) != 2 {
		t.Fatalf("replay past a kind-1 frame: %+v", st)
	}
	fi, err := os.Stat(walPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := json.Marshal(&walHeader{Campaign: campaign, Testbed: "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	want := walRecordSize(len(hdr)) + walRecordSize(len(walTestFrame(t, "a1", 1))) +
		walRecordSize(len(walTestFrame(t, "a1", 2)))
	if fi.Size() != want {
		t.Fatalf("log is %d bytes after replay, want %d (cut before the kind-1 frame)", fi.Size(), want)
	}
}

// TestWALCompaction: once acknowledgements dominate the file, compaction
// rewrites it to a header (carrying the cursors) plus the unacknowledged
// frames, and a reopen sees the same state from a much smaller file.
func TestWALCompaction(t *testing.T) {
	campaign := CampaignID{Seed: 3, Duration: 24 * sim.Hour, Scenario: 3}
	dir := t.TempDir()
	w, _, err := openWAL(dir, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	var freed int64
	var last []byte
	for seq := uint64(1); seq <= 200; seq++ {
		raw := walTestFrame(t, "a1", seq)
		if err := w.appendFrame(raw, true); err != nil {
			t.Fatal(err)
		}
		if seq < 200 {
			freed += walRecordSize(len(raw))
		} else {
			last = raw
		}
	}
	grown, err := os.Stat(walPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.noteAck("a1", 199, freed); err != nil {
		t.Fatal(err)
	}
	if !w.shouldCompact() {
		t.Fatalf("%d dead / %d live bytes did not trigger compaction", w.dead, w.live)
	}
	if err := w.compact([][]byte{last}); err != nil {
		t.Fatal(err)
	}
	w.close()
	shrunk, err := os.Stat(walPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Size() >= grown.Size()/10 {
		t.Fatalf("compaction barely shrank the log: %d -> %d bytes", grown.Size(), shrunk.Size())
	}
	_, streams, err := openWAL(dir, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := streams["a1"]
	if st == nil || st.acked != 199 || st.last != 200 || len(st.frames) != 1 {
		t.Fatalf("post-compaction replay diverged: %+v", st)
	}
}

// TestWALAckDeferral: ack records below the walAckEvery threshold stay
// in memory (a restart just resends a short acked tail the sink dedups),
// while an advance past the threshold is durably recorded and shrinks the
// replay.
func TestWALAckDeferral(t *testing.T) {
	campaign := CampaignID{Seed: 3, Duration: 24 * sim.Hour, Scenario: 3}
	dir := t.TempDir()
	w, _, err := openWAL(dir, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= walAckEvery+8; seq++ {
		if err := w.appendFrame(walTestFrame(t, "a1", seq), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.noteAck("a1", 10, 0); err != nil { // below threshold: deferred
		t.Fatal(err)
	}
	sizeAfterDeferred, err := os.Stat(walPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.noteAck("a1", walAckEvery+2, 0); err != nil { // past threshold: durable
		t.Fatal(err)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	sizeAfterDurable, err := os.Stat(walPath(dir, "alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if sizeAfterDurable.Size() <= sizeAfterDeferred.Size() {
		t.Fatal("threshold-crossing ack did not append a record")
	}
	w.close()
	_, streams, err := openWAL(dir, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := streams["a1"]
	if st == nil || st.acked != walAckEvery+2 || len(st.frames) != 6 {
		t.Fatalf("replay did not honor the durable ack: %+v", st)
	}
	// The deferred ack at seq 10 must NOT have survived on its own: a
	// second log acked only below the threshold replays everything.
	dir2 := t.TempDir()
	w2, _, err := openWAL(dir2, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := w2.appendFrame(walTestFrame(t, "a1", seq), true); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.noteAck("a1", 2, 0); err != nil {
		t.Fatal(err)
	}
	w2.close()
	_, streams, err = openWAL(dir2, "alpha", campaign, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := streams["a1"]; st == nil || st.acked != 0 || len(st.frames) != 3 {
		t.Fatalf("deferred-only ack leaked into the replay: %+v", st)
	}
}

// TestWALCampaignMismatch: a spill directory recorded under a different
// campaign or shard must be refused loudly, never silently merged.
func TestWALCampaignMismatch(t *testing.T) {
	dir := t.TempDir()
	w, _, err := openWAL(dir, "alpha", CampaignID{Seed: 1, Duration: sim.Day, Scenario: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.close()
	if _, _, err := openWAL(dir, "alpha", CampaignID{Seed: 2, Duration: sim.Day, Scenario: 3}, 0); err == nil {
		t.Fatal("WAL from a different campaign was accepted")
	} else if !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("unhelpful mismatch error: %v", err)
	}
}

// TestAgentSpillBudgetOverflow: with the sink unreachable the agent keeps
// the campaign running while spilling — until the budget is exceeded, at
// which point Ingest (and Err) fail loudly instead of eating the disk.
func TestAgentSpillBudgetOverflow(t *testing.T) {
	a, err := NewAgent(AgentConfig{
		Addr:     "127.0.0.1:1", // reserved port: every dial fails fast
		Campaign: CampaignID{Seed: 3, Duration: 24 * sim.Hour, Scenario: 3},
		Testbed:  "alpha", Nodes: []string{"a1", "a2", "napA"},
		SpillDir: t.TempDir(), SpillBudget: 512,
		RetryMin: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var ingestErr error
	for seq := 1; seq <= 100; seq++ {
		ingestErr = a.Ingest("alpha", "a1", nil, nil, sim.Time(seq)*sim.Hour)
		if ingestErr != nil {
			break
		}
	}
	if ingestErr == nil {
		t.Fatal("100 unshippable batches never exceeded a 512-byte spill budget")
	}
	if !strings.Contains(ingestErr.Error(), "spill budget exceeded") {
		t.Fatalf("unhelpful budget error: %v", ingestErr)
	}
	if a.Err() == nil {
		t.Fatal("budget overflow did not latch as the agent's fatal error")
	}
}

// TestDurableFileTornAtEveryByte truncates a guard-trailed checkpoint at
// every byte boundary: only the intact file may yield the new payload, and
// every tear must fall back to the rotated previous-good copy. Both files
// torn is a loud error; both missing is fs.ErrNotExist (fresh start).
func TestDurableFileTornAtEveryByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck")
	first := []byte("first checkpoint payload")
	second := []byte("second checkpoint payload, a little longer than the first")
	if err := WriteFileDurable(path, first); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileDurable(path, second); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path + PrevSuffix)
	if err != nil {
		t.Fatalf("previous-good rotation missing: %v", err)
	}
	for cut := 0; cut <= len(blob); cut++ {
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFileDurable(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := first
		if cut == len(blob) {
			want = second
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: restored %q, want %q", cut, got, want)
		}
	}
	// Both candidates torn: loud error, not fs.ErrNotExist, not silence.
	if err := os.WriteFile(path, blob[:len(blob)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+PrevSuffix, prev[:len(prev)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFileDurable(path); err == nil {
		t.Fatal("two torn checkpoints restored without error")
	} else if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn checkpoints misreported as missing: %v", err)
	}
	// Both missing: fs.ErrNotExist so callers start fresh.
	os.Remove(path)
	os.Remove(path + PrevSuffix)
	if _, err := ReadFileDurable(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing checkpoints: err = %v, want fs.ErrNotExist", err)
	}
}

// TestSinkTornCheckpointFallsBack: a sink restarted on a checkpoint torn by
// the crash must fall back to the previous good checkpoint; with no
// fallback available it must refuse to start rather than resume from
// garbage.
func TestSinkTornCheckpointFallsBack(t *testing.T) {
	batches := tpBatches(24)
	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces:       []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: cpPath}},
		CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	agents := tpAgents(t, sink.Addr(), batches, FaultConfig{})
	for _, a := range agents {
		a.Close()
	}
	if _, err := sink.WaitKeyspace("", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	sink.Abort()
	blob, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cpPath + PrevSuffix); err != nil {
		t.Fatalf("checkpoint cadence never rotated a previous-good file: %v", err)
	}

	for _, cut := range []int{0, 7, durableTrailerLen - 1, len(blob) / 2, len(blob) - 1} {
		if err := os.WriteFile(cpPath, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
			Keyspaces:       []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: cpPath}},
			CheckpointEvery: 3})
		if err != nil {
			t.Fatalf("cut %d: restart did not fall back to the previous checkpoint: %v", cut, err)
		}
		s2.Abort()
	}

	// No previous-good fallback: a torn checkpoint must refuse to start.
	if err := os.WriteFile(cpPath, blob[:len(blob)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(cpPath + PrevSuffix)
	if _, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces:       []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: cpPath}},
		CheckpointEvery: 3}); err == nil {
		t.Fatal("sink started from a torn checkpoint with no fallback")
	}
}

// tpSpillAgents builds one spill-enabled agent per testbed (not yet fed or
// finished).
func tpSpillAgents(t testing.TB, addr, spillDir string) map[string]*Agent {
	t.Helper()
	agents := make(map[string]*Agent)
	for _, tb := range tpSpec().Testbeds {
		a, err := NewAgent(AgentConfig{
			Addr: addr, Testbed: tb.Name,
			Nodes:        tb.Nodes(),
			SpillDir:     spillDir,
			RetryMin:     5 * time.Millisecond,
			RetryMax:     50 * time.Millisecond,
			StallTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[tb.Name] = a
	}
	return agents
}

// tpFinish finishes every agent with the standard counters.
func tpFinish(t testing.TB, agents map[string]*Agent) {
	t.Helper()
	for _, tb := range tpSpec().Testbeds {
		counters := make(map[string]*workload.CountersSnapshot)
		for _, node := range tb.PANUs {
			counters[node] = tpCounters(node)
		}
		if err := agents[tb.Name].Finish(counters, 24*sim.Hour, 30*time.Second); err != nil {
			t.Fatalf("finish %s: %v", tb.Name, err)
		}
	}
}

// TestAgentSpillKillResume kills both agents mid-campaign (Abort, the
// in-process kill -9 double: only the spill log survives) and restarts them
// on the same spill directory. The restarted agents replay the
// unacknowledged tail, skip the drains their deterministic re-run
// regenerates, and the completed campaign matches the local reference digit
// for digit.
func TestAgentSpillKillResume(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)
	spill := t.TempDir()
	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")

	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces:       []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: cpPath}},
		CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	// First incarnation: half the campaign, then kill -9 both agents after
	// the sink demonstrably acknowledged some of it (so the replay exercises
	// both ack-truncated and unacknowledged WAL records).
	agents := tpSpillAgents(t, sink.Addr(), spill)
	half := len(batches) / 2
	for _, b := range batches[:half] {
		if err := agents[b.testbed].Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		applied, _, _ := sink.Stats()
		if applied >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink never applied the first half (%d applied)", applied)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, a := range agents {
		a.Abort()
	}

	// Second incarnation: the deterministic shard re-run replays every drain
	// from the start; the agents must skip what the WAL already covers and
	// ship the rest.
	agents = tpSpillAgents(t, sink.Addr(), spill)
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()
	for _, b := range batches {
		if err := agents[b.testbed].Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
	}
	tpFinish(t, agents)
	rep, err := sink.WaitKeyspace("", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Errorf("kill-and-replay aggregates diverge from local streamer")
	}
	// The replay skipped what the sink had acknowledged: the second
	// incarnation must have shipped fewer frames than the whole campaign.
	total := 0
	for _, a := range agents {
		sent, _ := a.Stats()
		total += sent
	}
	if total >= len(batches) {
		t.Errorf("restarted agents sent %d frames for a %d-batch campaign — replay skipped nothing",
			total, len(batches))
	}
}

// TestAgentSpillAckRaceReconnect races acknowledgement-driven WAL
// truncation against reconnect-and-resume: a checkpointing sink is killed
// and restarted twice mid-campaign while spill-enabled agents keep
// ingesting, retransmitting and truncating. Run under -race in CI, and the
// final aggregates must still be exact.
func TestAgentSpillAckRaceReconnect(t *testing.T) {
	batches := tpBatches(24)
	want := tpLocal(t, batches)
	spill := t.TempDir()
	cpPath := filepath.Join(t.TempDir(), "sink.ckpt")
	mkSink := func(addr string) *Sink {
		s, err := NewSink(SinkConfig{Addr: addr,
			Keyspaces:       []KeyspaceConfig{{Spec: tpSpec(), CheckpointPath: cpPath}},
			CheckpointEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sink := mkSink("127.0.0.1:0")
	addr := sink.Addr()
	agents := tpSpillAgents(t, addr, spill)
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()

	kills := map[int]bool{len(batches) / 3: true, 2 * len(batches) / 3: true}
	for i, b := range batches {
		if err := agents[b.testbed].Ingest(b.testbed, b.node, b.reports, b.entries, b.watermark); err != nil {
			t.Fatal(err)
		}
		if kills[i] {
			// Let acks land mid-stream, then kill the sink under the agents.
			deadline := time.Now().Add(10 * time.Second)
			for {
				if applied, _, _ := sink.Stats(); applied > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("sink applied nothing before the scheduled kill")
				}
				time.Sleep(2 * time.Millisecond)
			}
			sink.Abort()
			sink = mkSink(addr)
		}
	}
	defer sink.Close()
	tpFinish(t, agents)
	rep, err := sink.WaitKeyspace("", 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Agg.Snapshot(); !reflect.DeepEqual(want, got) {
		t.Errorf("ack-race aggregates diverge from local streamer")
	}
}
