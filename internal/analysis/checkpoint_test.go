package analysis

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// The checkpoint round-trip suite: a Streamer serialized mid-campaign and
// restored must fold the remainder of its streams into aggregates
// bit-identical to a never-interrupted run — including shards that never
// received a record, batches applied after the checkpoint (a "mid-batch
// kill": applied but unacknowledged work that gets retransmitted), and
// reorder-parked batches captured inside the checkpoint.

// synthStream describes one generated stream.
type synthStream struct {
	testbed, node string
	isNAP         bool
	quiet         bool // ships watermark-only batches (the empty-shard case)
}

// synthStreams lists the generated campaign's streams: two testbeds, one
// silent PANU.
func synthStreams() []synthStream {
	return []synthStream{
		{testbed: "tbA", node: "p1"},
		{testbed: "tbA", node: "p2"},
		{testbed: "tbA", node: "napA", isNAP: true},
		{testbed: "tbB", node: "p3"},
		{testbed: "tbB", node: "quiet", quiet: true},
		{testbed: "tbB", node: "napB", isNAP: true},
	}
}

// synthSpec declares the generated campaign for a Streamer.
func synthSpec() StreamSpec {
	return StreamSpec{Testbeds: []TestbedSpec{
		{Name: "tbA", Kind: core.WLRandom, NAP: "napA", PANUs: []string{"p1", "p2"}},
		{Name: "tbB", Kind: core.WLRealistic, NAP: "napB", PANUs: []string{"p3", "quiet"}},
	}}
}

// synthBatch is one generated shipment.
type synthBatch struct {
	testbed, node string
	reports       []core.UserReport
	entries       []core.SystemEntry
	watermark     sim.Time
	seq           uint64
}

// synthBatches generates a deterministic batch sequence: hours hourly
// flushes per stream, every stream's records time-ordered, watermarks at
// whole hours. The record mix exercises every aggregate (failures with and
// without recovery, masked reports, packet losses with ages, per-app and
// per-distance counts, NAP- and PANU-side entries).
func synthBatches(hours int) []synthBatch {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func(mod uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % mod
	}
	streams := synthStreams()
	seqs := make(map[string]uint64)
	var out []synthBatch
	for h := 1; h <= hours; h++ {
		wm := sim.Time(h) * sim.Hour
		start := wm - sim.Hour
		for _, st := range streams {
			key := st.testbed + "/" + st.node
			seqs[key]++
			sb := synthBatch{testbed: st.testbed, node: st.node, watermark: wm, seq: seqs[key]}
			if !st.quiet {
				t := start
				for i, n := 0, int(next(4)); i < n; i++ {
					t += sim.Time(next(uint64(sim.Hour / 4)))
					if t >= wm {
						break
					}
					sb.entries = append(sb.entries, core.SystemEntry{
						At: t, Testbed: st.testbed, Node: st.node,
						Source: core.SysSource(1 + next(7)),
						Code:   core.ErrorCode(next(5)),
						ConnID: next(100),
					})
				}
				if !st.isNAP {
					t = start + sim.Second
					for i, m := 0, int(next(3)); i < m; i++ {
						t += sim.Time(next(uint64(sim.Hour / 3)))
						if t >= wm {
							break
						}
						failures := core.UserFailures()
						r := core.UserReport{
							At: t, Testbed: st.testbed, Node: st.node,
							Failure:   failures[next(uint64(len(failures)))],
							Workload:  core.WLRandom,
							SentPkts:  int(next(12000)),
							RecvdPkts: int(next(12000)),
							DistanceM: []float64{1, 5, 10}[next(3)],
							ConnID:    next(100),
						}
						if st.testbed == "tbB" {
							r.Workload = core.WLRealistic
							r.App = core.AppKind(1 + next(5))
						}
						if next(5) == 0 {
							r.Masked = true
						}
						if next(3) > 0 {
							r.Recovered = true
							r.Recovery = core.RecoveryAction(1 + next(uint64(core.NumRecoveryActions)))
							r.TTR = sim.Time(1+next(20)) * sim.Second
						}
						sb.reports = append(sb.reports, r)
					}
				}
			}
			out = append(out, sb)
		}
	}
	return out
}

// feed delivers each batch once, in order, failing the test on any ingest
// error or a batch the streamer does not accept.
func feed(t *testing.T, s *Streamer, batches []synthBatch) {
	t.Helper()
	for _, b := range batches {
		ok, err := s.OfferSeq(b.testbed, b.node, b.reports, b.entries, b.watermark, b.seq)
		if err != nil || !ok {
			t.Fatalf("ingest %s/%s seq %d: accepted %v, %v", b.testbed, b.node, b.seq, ok, err)
		}
	}
}

// offer re-delivers batches through the tolerant path (retransmission).
func offer(t *testing.T, s *Streamer, batches []synthBatch) {
	t.Helper()
	for _, b := range batches {
		if _, err := s.OfferSeq(b.testbed, b.node, b.reports, b.entries, b.watermark, b.seq); err != nil {
			t.Fatalf("offer %s/%s seq %d: %v", b.testbed, b.node, b.seq, err)
		}
	}
}

// continuous runs the whole batch sequence through one streamer.
func continuous(t *testing.T, batches []synthBatch) *AggregatesSnapshot {
	t.Helper()
	s, err := NewStreamer(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, batches)
	return s.Finalize().Snapshot()
}

// checkpointJSON round-trips a checkpoint through its JSON encoding,
// marshalled inside the view: the result is a deep copy that shares
// nothing with the live streamer.
func checkpointJSON(t *testing.T, s *Streamer) *StreamerCheckpoint {
	t.Helper()
	var blob []byte
	err := s.CheckpointView(func(cp *StreamerCheckpoint) (err error) {
		blob, err = json.Marshal(cp)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var back StreamerCheckpoint
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	return &back
}

// TestCheckpointResumeMatchesContinuous is the core round trip: checkpoint
// at the halfway flush, restore from the JSON bytes, feed the rest.
func TestCheckpointResumeMatchesContinuous(t *testing.T) {
	batches := synthBatches(24)
	want := continuous(t, batches)

	cut := len(batches) / 2
	s1, err := NewStreamer(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s1, batches[:cut])
	cp := checkpointJSON(t, s1)
	s2, err := RestoreStreamer(synthSpec(), cp)
	if err != nil {
		t.Fatal(err)
	}
	// The restored cursors must agree with the checkpoint's promises.
	for _, st := range synthStreams() {
		seq, _, err := s2.Cursor(st.testbed, st.node)
		if err != nil {
			t.Fatal(err)
		}
		if want := cp.AppliedSeq(st.testbed, st.node); seq != want {
			t.Fatalf("restored cursor %s/%s = %d, checkpoint says %d", st.testbed, st.node, seq, want)
		}
	}
	feed(t, s2, batches[cut:])
	got := s2.Finalize().Snapshot()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("checkpoint-resume aggregates diverge from continuous run")
	}
}

// TestCheckpointMidBatchKill models a sink killed after applying batches the
// checkpoint does not cover: the restored streamer sees them again as
// retransmissions (plus re-sends of already-durable batches, which must be
// ignored as duplicates) and still converges to the continuous digits.
func TestCheckpointMidBatchKill(t *testing.T) {
	batches := synthBatches(24)
	want := continuous(t, batches)

	streams := len(synthStreams())
	cut := len(batches) / 2
	s1, err := NewStreamer(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s1, batches[:cut])
	cp := checkpointJSON(t, s1)
	// Applied after the checkpoint, then lost with the process.
	feed(t, s1, batches[cut:cut+streams])

	s2, err := RestoreStreamer(synthSpec(), cp)
	if err != nil {
		t.Fatal(err)
	}
	// The sender's retransmit window starts before the checkpoint: the
	// already-covered flush must come back as (false, nil) duplicates.
	for _, b := range batches[cut-streams : cut] {
		accepted, err := s2.OfferSeq(b.testbed, b.node, b.reports, b.entries, b.watermark, b.seq)
		if err != nil {
			t.Fatalf("duplicate offer errored: %v", err)
		}
		if accepted {
			t.Fatalf("duplicate %s/%s seq %d was applied twice", b.testbed, b.node, b.seq)
		}
	}
	offer(t, s2, batches[cut:])
	got := s2.Finalize().Snapshot()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("mid-batch-kill resume diverges from continuous run")
	}
}

// TestCheckpointCarriesParkedBatches checkpoints while a sequence gap has a
// batch parked, restores, then fills the gap.
func TestCheckpointCarriesParkedBatches(t *testing.T) {
	batches := synthBatches(24)
	want := continuous(t, batches)

	streams := len(synthStreams())
	cut := len(batches) / 2
	s1, err := NewStreamer(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s1, batches[:cut])
	// The next flush arrives with one stream's batch overtaken by its
	// successor: deliver flush cut+1 for every stream, plus flush cut+2 for
	// the stream whose cut+1 batch is "in flight" — except we hold exactly
	// one batch (the first stream's cut+1) and deliver its cut+2 instead.
	held := batches[cut]
	offer(t, s1, batches[cut+1:cut+streams])         // rest of the cut+1 flush
	offer(t, s1, batches[cut+streams:cut+streams+1]) // held stream's next batch: parks
	cp := checkpointJSON(t, s1)

	s2, err := RestoreStreamer(synthSpec(), cp)
	if err != nil {
		t.Fatal(err)
	}
	offer(t, s2, []synthBatch{held}) // gap fills; parked batch unparks
	offer(t, s2, batches[cut+streams+1:])
	got := s2.Finalize().Snapshot()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("parked-batch resume diverges from continuous run")
	}
}

// TestAggregatesSnapshotRoundTrip pins the standalone (finalized) aggregate
// snapshot: restore → snapshot is the identity, and the restored aggregates
// render the same tables.
func TestAggregatesSnapshotRoundTrip(t *testing.T) {
	batches := synthBatches(12)
	s, err := NewStreamer(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, batches)
	agg := s.Finalize()
	snap := agg.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back AggregatesSnapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreAggregates(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, restored.Snapshot()) {
		t.Errorf("aggregates snapshot round trip is not the identity")
	}
	if got, want := restored.Table2().Render(), agg.Table2().Render(); got != want {
		t.Errorf("restored Table 2 diverges:\n%s\nvs\n%s", got, want)
	}
	if got, want := restored.Table3().Render(), agg.Table3().Render(); got != want {
		t.Errorf("restored Table 3 diverges")
	}
	if !reflect.DeepEqual(restored.Dependability("x"), agg.Dependability("x")) {
		t.Errorf("restored Table 4 column diverges")
	}
	if !reflect.DeepEqual(restored.Fig3bBars(), agg.Fig3bBars()) {
		t.Errorf("restored Fig 3b diverges")
	}
}

// TestCheckpointAfterFinalizeFails pins the misuse error.
func TestCheckpointAfterFinalizeFails(t *testing.T) {
	s, err := NewStreamer(synthSpec())
	if err != nil {
		t.Fatal(err)
	}
	s.Finalize()
	if err := s.CheckpointView(func(*StreamerCheckpoint) error { return nil }); err == nil {
		t.Fatal("checkpoint of a finalized streamer did not fail")
	}
}
