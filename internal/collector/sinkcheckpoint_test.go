package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The sink checkpoint codec suite. One fixed scenario runs throughout: the
// tpSpec campaign with the depend trace on, each stream's batches numbered
// from 1, and stream alpha/a1's hour-ckptHeld batch held back until just
// after the checkpoint. At the checkpoint, a1's later batches sit parked
// behind the gap, the stalled fold leaves every other stream's records
// pending, and the relators hold in-flight windows.

// ckptHours, ckptHeld and ckptCut shape the scenario: a 24-hour campaign,
// a1's hour-10 batch held, the checkpoint after hour 14.
const (
	ckptHours = 24
	ckptHeld  = 10
	ckptCut   = 14
)

// ckptCampaign identifies the scenario's keyspace.
var ckptCampaign = CampaignID{Seed: 7, Duration: ckptHours * sim.Hour, Scenario: 1}

// ckptSpec is tpSpec with the depend trace on, as on a sink shard.
func ckptSpec() analysis.StreamSpec {
	spec := tpSpec()
	spec.TraceDepend = true
	return spec
}

// ckptKeyspace is the scenario's keyspace, checkpointing at path.
func ckptKeyspace(path string) KeyspaceConfig {
	return KeyspaceConfig{Key: "ckpt", Campaign: ckptCampaign, Spec: ckptSpec(), CheckpointPath: path}
}

// ckptBatch is a tpBatch with its per-stream sequence number.
type ckptBatch struct {
	tpBatch
	seq uint64
}

// ckptOrder returns the scenario's delivery order, split at the checkpoint.
func ckptOrder() (before, after []ckptBatch) {
	next := make(map[string]uint64)
	var held ckptBatch
	for i, b := range tpBatches(ckptHours) {
		key := b.testbed + "/" + b.node
		next[key]++
		cb := ckptBatch{tpBatch: b, seq: next[key]}
		hour := i/5 + 1 // tpBatches emits five streams per hour
		switch {
		case key == "alpha/a1" && hour == ckptHeld:
			held = cb
		case hour <= ckptCut:
			before = append(before, cb)
		default:
			after = append(after, cb)
		}
	}
	return before, append([]ckptBatch{held}, after...)
}

// ckptOffer delivers batches in order.
func ckptOffer(t testing.TB, str *analysis.Streamer, batches []ckptBatch) {
	t.Helper()
	for _, b := range batches {
		if _, err := str.OfferSeq(b.testbed, b.node, b.reports, b.entries, b.watermark, b.seq); err != nil {
			t.Fatal(err)
		}
	}
}

// ckptTenantState fills the Done bookkeeping and quota counters a live
// tenant checkpoints: beta has declared Done, alpha has not.
func ckptTenantState(t *tenant) {
	t.finals["beta"] = []StreamCursor{{Node: "b1", Seq: ckptHours}, {Node: "napB", Seq: ckptHours}}
	t.counters["beta"] = map[string]*workload.CountersSnapshot{"b1": tpCounters("b1")}
	t.durations["beta"] = ckptHours * sim.Hour
	t.ingestBytes, t.ingestBatches = 123456, 78
}

// ckptReport finalizes the streamer and renders what a campaign report is
// built from: Tables 2 and 3, the taxonomy table, the aggregate snapshot
// and the depend trace.
func ckptReport(t testing.TB, str *analysis.Streamer) []byte {
	t.Helper()
	agg := str.Finalize()
	var buf bytes.Buffer
	buf.WriteString(agg.Table2().Render())
	buf.WriteString(agg.Table3().Render())
	buf.WriteString(agg.Taxonomy().Table(ckptCampaign.Duration).Render())
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(agg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(str.DependTrace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ckptUninterrupted runs the scenario's delivery order through one
// streamer and renders its report.
func ckptUninterrupted(t testing.TB) []byte {
	t.Helper()
	str, err := analysis.NewStreamer(ckptSpec())
	if err != nil {
		t.Fatal(err)
	}
	before, after := ckptOrder()
	ckptOffer(t, str, before)
	ckptOffer(t, str, after)
	return ckptReport(t, str)
}

// ckptLiveTenant builds the scenario's tenant at the checkpoint instant,
// checkpointing at path.
func ckptLiveTenant(t testing.TB, s *Sink, path string) *tenant {
	t.Helper()
	ten, err := s.newTenant(ckptKeyspace(path))
	if err != nil {
		t.Fatal(err)
	}
	before, _ := ckptOrder()
	ckptOffer(t, ten.str, before)
	ckptTenantState(ten)
	return ten
}

// normEmpty rewrites every empty slice and map reachable through exported
// fields to nil, so reflect.DeepEqual treats nil and empty alike.
func normEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			normEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				normEmpty(f)
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			normEmpty(v.Index(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		for i := 0; i < v.Len(); i++ {
			normEmpty(v.Index(i))
		}
	case reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
			return
		}
		iter := v.MapRange()
		for iter.Next() {
			c := reflect.New(iter.Value().Type()).Elem()
			c.Set(iter.Value())
			normEmpty(c)
			v.SetMapIndex(iter.Key(), c)
		}
	}
}

// readPayload returns the verified payload of a sealed checkpoint file.
func readPayload(t testing.TB, path string) []byte {
	t.Helper()
	payload, err := ReadFileDurable(path)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// copyCheckpoint is the test oracle for the checkpoint view: a deep copy
// of a view's state, taken inside the view, that shares no slice with the
// live streamer and so stays valid after the view returns.
func copyCheckpoint(cp *analysis.StreamerCheckpoint) *analysis.StreamerCheckpoint {
	out := *cp
	out.Trace = append([]analysis.DependEvent(nil), cp.Trace...)
	out.Shards = append([]analysis.ShardCheckpoint(nil), cp.Shards...)
	for i := range out.Shards {
		sh := &out.Shards[i]
		sh.Reports = append([]core.UserReport(nil), sh.Reports...)
		sh.Entries = append([]core.SystemEntry(nil), sh.Entries...)
		sh.Parked = append([]analysis.ParkedCheckpoint(nil), sh.Parked...)
		for j := range sh.Parked {
			p := &sh.Parked[j]
			p.Reports = append([]core.UserReport(nil), p.Reports...)
			p.Entries = append([]core.SystemEntry(nil), p.Entries...)
		}
	}
	return &out
}

// TestSinkCheckpointBinaryRoundTrip pins the binary layout against a deep
// copy of the streamer's state: encode → decode reproduces it and the
// tenant bookkeeping exactly, and a sink restored from the file and
// continued renders the uninterrupted report byte for byte.
func TestSinkCheckpointBinaryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sink.ckpt")
	s := &Sink{cfg: SinkConfig{CheckpointEvery: 64}}
	ten := ckptLiveTenant(t, s, path)

	var cp *analysis.StreamerCheckpoint
	if err := ten.str.CheckpointView(func(view *analysis.StreamerCheckpoint) error {
		cp = copyCheckpoint(view)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var pending, parked int
	for _, sh := range cp.Shards {
		pending += len(sh.Reports) + len(sh.Entries)
		parked += len(sh.Parked)
	}
	if pending == 0 || parked == 0 || len(cp.Relators) == 0 || len(cp.Trace) == 0 {
		t.Fatalf("scenario too thin: %d pending records, %d parked batches, %d relators, %d trace events",
			pending, parked, len(cp.Relators), len(cp.Trace))
	}
	want := &sinkCheckpoint{Campaign: ckptCampaign, Keyspace: "ckpt", Streamer: cp,
		Finals: ten.finals, Counters: ten.counters, Durations: ten.durations,
		IngestBytes: ten.ingestBytes, IngestBatches: ten.ingestBatches}
	payload, err := appendSinkCheckpoint(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(payload, sinkCheckpointMagic[:]) {
		t.Fatalf("payload opens with %q, want the binary magic", payload[:5])
	}
	got, err := decodeSinkCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	normEmpty(reflect.ValueOf(want))
	normEmpty(reflect.ValueOf(got))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decode(encode(cp)) differs from cp")
	}

	// Through the sink: checkpoint, restore on a fresh tenant, continue.
	if err := s.checkpointLocked(ten); err != nil {
		t.Fatal(err)
	}
	if p := readPayload(t, path); !bytes.HasPrefix(p, sinkCheckpointMagic[:]) {
		t.Fatalf("sink wrote a payload opening with %q, want the binary magic", p[:5])
	}
	restored, err := s.newTenant(ckptKeyspace(path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.finals, ten.finals) || restored.ingestBatches != ten.ingestBatches ||
		restored.durations["beta"] != ten.durations["beta"] || restored.counters["beta"]["b1"].Cycles != tpCounters("b1").Cycles {
		t.Fatalf("tenant bookkeeping did not survive the checkpoint")
	}
	if restored.ackable[skey{"alpha", "a1"}].Seq != ckptHeld-1 {
		t.Fatalf("a1 resumes after seq %d, want %d", restored.ackable[skey{"alpha", "a1"}].Seq, ckptHeld-1)
	}
	_, after := ckptOrder()
	ckptOffer(t, restored.str, after)
	if got, want := ckptReport(t, restored.str), ckptUninterrupted(t); !bytes.Equal(got, want) {
		t.Errorf("restored-and-continued report differs from the uninterrupted run")
	}
}

// ckptJSONPayload renders the tenant's checkpoint as one JSON document,
// the layout that predates the binary one and is no longer read.
func ckptJSONPayload(t testing.TB, ten *tenant) []byte {
	t.Helper()
	var payload []byte
	err := ten.str.CheckpointView(func(cp *analysis.StreamerCheckpoint) (err error) {
		payload, err = json.Marshal(&sinkCheckpoint{Campaign: ten.cfg.Campaign, Keyspace: ten.cfg.Key,
			Streamer: cp, Finals: ten.finals, Counters: ten.counters, Durations: ten.durations,
			IngestBytes: ten.ingestBytes, IngestBatches: ten.ingestBatches})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestSinkCheckpointRejectsJSONLayout restarts a keyspace on an intact,
// sealed checkpoint in the retired JSON layout: the restore must fail with
// an error naming the file, never resume from it or start over fresh.
func TestSinkCheckpointRejectsJSONLayout(t *testing.T) {
	s := &Sink{cfg: SinkConfig{CheckpointEvery: 64}}
	path := filepath.Join(t.TempDir(), "sink.ckpt")
	if err := WriteFileDurable(path, ckptJSONPayload(t, ckptLiveTenant(t, s, ""))); err != nil {
		t.Fatal(err)
	}
	ten, err := s.newTenant(ckptKeyspace(path))
	if err == nil {
		t.Fatal("keyspace restored from a JSON-layout checkpoint")
	}
	if ten != nil {
		t.Error("a refused checkpoint still produced a keyspace")
	}
	for _, want := range []string{"corrupt", path, "not a sink checkpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not contain %q", err, want)
		}
	}
}

// TestSinkCheckpointRejectsCorruption truncates a binary checkpoint at
// every byte, then flips every byte of its prefix and record sections (the
// JSON header is left to FuzzSinkCheckpoint): decoding must fail with an
// error, or — for a flip inside a record field — succeed to a checkpoint
// that still round-trips; it must never panic.
func TestSinkCheckpointRejectsCorruption(t *testing.T) {
	s := &Sink{cfg: SinkConfig{CheckpointEvery: 64}}
	ten := ckptLiveTenant(t, s, "")
	payload := ckptPayload(t, ten)
	for n := 0; n < len(payload); n++ {
		if _, err := decodeSinkCheckpoint(payload[:n]); err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes decoded without error", n, len(payload))
		}
	}
	bounds := ckptSectionBounds(t, payload)
	for i := range payload {
		if i >= bounds[1] && i < bounds[2] {
			continue // inside the JSON header
		}
		mangled := append([]byte(nil), payload...)
		mangled[i] ^= 0xFF
		checkCheckpointFixedPoint(t, mangled)
	}
}

// ckptPayload encodes the tenant's current checkpoint payload straight
// from the checkpoint view, as the sink does.
func ckptPayload(t testing.TB, ten *tenant) []byte {
	t.Helper()
	var payload []byte
	err := ten.str.CheckpointView(func(cp *analysis.StreamerCheckpoint) (err error) {
		payload, err = appendSinkCheckpoint(nil, &sinkCheckpoint{Campaign: ten.cfg.Campaign,
			Keyspace: ten.cfg.Key, Streamer: cp, Finals: ten.finals, Counters: ten.counters,
			Durations: ten.durations, IngestBytes: ten.ingestBytes, IngestBatches: ten.ingestBatches})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestCheckpointViewMatchesCopy encodes checkpoint payloads straight from
// the checkpoint view while another goroutine keeps offering batches —
// some out of order, so batches park, and on every stream, so the fold
// keeps draining the pending queues the view aliases. Each payload must be
// byte-identical to one encoded after the view returned from a deep copy
// taken in the same view. Under -race it also holds the view to its
// locking: an aliased queue read outside the locks races with the ingest.
func TestCheckpointViewMatchesCopy(t *testing.T) {
	str, err := analysis.NewStreamer(ckptSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Every 40 hours a1's batch is held back 20 hours: its successors park
	// and the fold stalls meanwhile, then the gap fills and the fold drains.
	var order, held []ckptBatch
	next := make(map[string]uint64)
	for i, b := range tpBatches(200) {
		key := b.testbed + "/" + b.node
		next[key]++
		hour := i/5 + 1
		cb := ckptBatch{tpBatch: b, seq: next[key]}
		switch {
		case key == "alpha/a1" && hour%40 == 10:
			held = append(held, cb)
		case key == "alpha/a1" && hour%40 == 30:
			order = append(order, held[len(held)-1], cb)
		default:
			order = append(order, cb)
		}
	}
	// The ingest pauses once, around hour 20 with ten a1 batches parked,
	// until one view has run, so at least one view sees parked batches
	// however the goroutines are scheduled.
	done, paused, resume := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i, b := range order {
			if _, err := str.OfferSeq(b.testbed, b.node, b.reports, b.entries, b.watermark, b.seq); err != nil {
				t.Error(err)
				return
			}
			if i == len(order)/10 {
				paused <- struct{}{}
				<-resume
			}
		}
	}()
	views, parked := 0, 0
	for running := true; running; views++ {
		wasPaused := false
		select {
		case <-done:
			running = false // one last view of the quiescent state
		case <-paused:
			wasPaused = true
		default:
		}
		var direct []byte
		var copied *analysis.StreamerCheckpoint
		err := str.CheckpointView(func(cp *analysis.StreamerCheckpoint) (err error) {
			for _, sh := range cp.Shards {
				parked += len(sh.Parked)
			}
			copied = copyCheckpoint(cp)
			direct, err = appendSinkCheckpoint(nil, &sinkCheckpoint{Campaign: ckptCampaign, Streamer: cp})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		fromCopy, err := appendSinkCheckpoint(nil, &sinkCheckpoint{Campaign: ckptCampaign, Streamer: copied})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct, fromCopy) {
			t.Fatalf("view %d: payload encoded from the view differs from the deep copy's", views)
		}
		if wasPaused {
			close(resume)
		}
	}
	if parked == 0 {
		t.Error("no view saw a parked batch; the held batches did not engage")
	}
	t.Logf("%d views, %d parked batches seen", views, parked)
}

// checkCheckpointFixedPoint is the decoder's contract on arbitrary input:
// no panic; and an accepted payload re-encodes, re-decodes and re-encodes
// to the same bytes (decode → encode → decode is a fixed point).
func checkCheckpointFixedPoint(t *testing.T, payload []byte) {
	t.Helper()
	cp, err := decodeSinkCheckpoint(payload)
	if err != nil {
		return
	}
	first, err := appendSinkCheckpoint(nil, cp)
	if err != nil {
		t.Fatalf("re-encode of an accepted checkpoint failed: %v", err)
	}
	again, err := decodeSinkCheckpoint(first)
	if err != nil {
		t.Fatalf("re-decode of an accepted checkpoint failed: %v", err)
	}
	second, err := appendSinkCheckpoint(nil, again)
	if err != nil {
		t.Fatalf("second re-encode failed: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("decode → encode → decode is not a fixed point")
	}
}

// ckptSectionBounds lists the offsets at which a binary checkpoint's
// sections end: magic, header length, header, then per shard its pending
// batch, parked count and each parked batch.
func ckptSectionBounds(t testing.TB, payload []byte) []int {
	t.Helper()
	off := len(sinkCheckpointMagic)
	bounds := []int{off}
	n, k := binary.Uvarint(payload[off:])
	off += k
	bounds = append(bounds, off)
	var hdr sinkCheckpoint
	if err := json.Unmarshal(payload[off:off+int(n)], &hdr); err != nil {
		t.Fatal(err)
	}
	off += int(n)
	bounds = append(bounds, off)
	batch := func() {
		off += 4 + int(binary.BigEndian.Uint32(payload[off:]))
		bounds = append(bounds, off)
	}
	for range hdr.Streamer.Shards {
		batch()
		np, k := binary.Uvarint(payload[off:])
		off += k
		bounds = append(bounds, off)
		for j := uint64(0); j < np; j++ {
			batch()
		}
	}
	if off != len(payload) {
		t.Fatalf("section walk ends at %d of %d bytes", off, len(payload))
	}
	return bounds
}

// FuzzSinkCheckpoint throws arbitrary payloads at the checkpoint decoder —
// what a restarting sink reads from a disk it cannot trust beyond the
// guard trailer. Decoding must never panic, every failure must be an
// error, and accepted payloads must satisfy the fixed-point law. The seed
// corpus is the scenario's checkpoint, truncated at every section boundary
// (one byte either side too), an empty-queue checkpoint taken before any
// batch, and the scenario in the retired JSON layout, which must be
// rejected.
func FuzzSinkCheckpoint(f *testing.F) {
	s := &Sink{cfg: SinkConfig{CheckpointEvery: 64}}
	fresh, err := s.newTenant(ckptKeyspace(""))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ckptPayload(f, fresh))
	binPayload := ckptPayload(f, ckptLiveTenant(f, s, ""))
	f.Add(binPayload)
	for _, b := range ckptSectionBounds(f, binPayload) {
		for _, n := range []int{b - 1, b, b + 1} {
			if n >= 0 && n < len(binPayload) {
				f.Add(binPayload[:n])
			}
		}
	}
	legacy := ckptJSONPayload(f, ckptLiveTenant(f, s, ""))
	f.Add(legacy)
	f.Add(legacy[:len(legacy)/2])
	f.Fuzz(checkCheckpointFixedPoint)
}

// BenchmarkSinkCheckpoint measures one sink checkpoint — streamer
// snapshot, payload encode, seal and the atomic file write — on a keyspace
// holding about 1.2k pending records (the collect workload's average).
// bytes/ckpt is the sealed file size.
func BenchmarkSinkCheckpoint(b *testing.B) {
	path := filepath.Join(b.TempDir(), "sink.ckpt")
	s := &Sink{cfg: SinkConfig{CheckpointEvery: 64}}
	ten, err := s.newTenant(ckptKeyspace(path))
	if err != nil {
		b.Fatal(err)
	}
	// beta/napB stays silent, so the fold stalls at the start and every
	// other stream's records pend.
	next := make(map[string]uint64)
	for _, tb := range tpBatches(1000) {
		if ten.str.Pending() >= 1200 {
			break
		}
		if tb.node == "napB" {
			continue
		}
		key := tb.testbed + "/" + tb.node
		next[key]++
		if _, err := ten.str.OfferSeq(tb.testbed, tb.node, tb.reports, tb.entries, tb.watermark, next[key]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.checkpointLocked(ten); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(st.Size()), "bytes/ckpt")
	b.ReportMetric(float64(ten.str.Pending()), "records")
}

// ingestLag is how many hours napA's stream runs behind a1's and a2's in
// BenchmarkSinkIngest. The fold horizon follows the slowest stream, so the
// lag holds about 1.2k records pending, the collect workload's average.
const ingestLag = 400

// ingestFrames encodes n data frames of tpSpec's alpha testbed: per step
// h, a1's and a2's hour-h batches (one system entry, plus a user report
// every other hour) and napA's hour h-ingestLag batch (one entry).
func ingestFrames(n int) []byte {
	failures := core.UserFailures()
	var wire bytes.Buffer
	for h, sent := uint64(1), 0; sent < n; h++ {
		for _, node := range []string{"a1", "a2", "napA"} {
			hour := h
			if node == "napA" {
				if h <= ingestLag {
					continue
				}
				hour = h - ingestLag
			}
			if sent == n {
				break
			}
			wm := sim.Time(hour) * sim.Hour
			b := &Batch{Testbed: "alpha", Node: node, Seq: hour, Watermark: wm,
				Entries: []core.SystemEntry{{At: wm - sim.Hour + sim.Time(len(node))*sim.Minute,
					Testbed: "alpha", Node: node, Source: core.SysSource(1 + hour%7)}}}
			if node != "napA" && hour%2 == 0 {
				b.Reports = []core.UserReport{{At: wm - sim.Hour/2, Testbed: "alpha", Node: node,
					Failure: failures[hour%uint64(len(failures))], SentPkts: int(hour % 9000)}}
			}
			if err := WriteBatch(&wire, b); err != nil {
				panic(err)
			}
			sent++
		}
	}
	return wire.Bytes()
}

// BenchmarkSinkIngest measures sink ingest per data frame: one raw session
// streams pre-encoded frames of the alpha testbed over loopback into a
// checkpointing keyspace at the default cadence (a checkpoint every 64
// frames) while a reader drains the acknowledgements. The timed region
// ends when the sink has applied every frame, so ns/frame covers the
// frame read and decode, the apply and fold, the checkpoints and the Acks;
// allocs/op counts one frame's allocations on both ends. acks/frame is the
// share of frames that drew an Ack.
func BenchmarkSinkIngest(b *testing.B) {
	spec := tpSpec()
	spec.Testbeds = spec.Testbeds[:1]
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", Keyspaces: []KeyspaceConfig{{Spec: spec,
		CheckpointPath: filepath.Join(b.TempDir(), "sink.ckpt")}}})
	if err != nil {
		b.Fatal(err)
	}
	wire := ingestFrames(b.N)
	conn, err := net.Dial("tcp", sink.Addr())
	if err != nil {
		b.Fatal(err)
	}
	hello := &Hello{Testbed: "alpha", Nodes: spec.Testbeds[0].Nodes()}
	if err := writeControl(conn, frameHello, hello); err != nil {
		b.Fatal(err)
	}
	if fr, err := ReadFrame(conn); err != nil || fr.Kind != KindResume {
		b.Fatalf("handshake: %v %v", fr, err)
	}
	var acks atomic.Int64
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			fr, err := ReadFrame(conn)
			if err != nil {
				return
			}
			if fr.Kind == KindAck {
				acks.Add(1)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	if _, err := conn.Write(wire); err != nil {
		b.Fatal(err)
	}
	for {
		applied, _, rejected := sink.Stats()
		if rejected > 0 {
			b.Fatalf("sink rejected %d frames", rejected)
		}
		if applied == b.N {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	sink.Close()
	conn.Close()
	<-readerDone
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(acks.Load())/float64(b.N), "acks/frame")
}

// keyspaceBacklogDays sizes BenchmarkSinkKeyspace's backlog: four weeks of
// hourly flushes of tpSpec's alpha testbed, 2016 frames.
const keyspaceBacklogDays = 28

// BenchmarkSinkKeyspace measures one keyspace's life on a long-lived sink:
// an agent buffers a recorded multi-day backlog of the alpha testbed's
// three streams while its keyspace is not registered yet, and ships it
// into a checkpointing keyspace (default cadence) once it is, until
// WaitKeyspace returns. Each iteration is a fresh keyspace on the same
// sink. ns/frame is the wall time from registration to completion per data
// frame; ckpt-bytes/frame the checkpoint file bytes the keyspace wrote per
// frame (KeyspaceMetrics.CheckpointBytes); retained-KB/keyspace the live
// heap, after GC, that the completed keyspaces still hold, per keyspace.
func BenchmarkSinkKeyspace(b *testing.B) {
	spec := tpSpec()
	spec.Testbeds = spec.Testbeds[:1]
	tb := spec.Testbeds[0]
	var backlog []tpBatch
	for _, bt := range tpBatches(keyspaceBacklogDays * 24) {
		if bt.testbed == tb.Name {
			backlog = append(backlog, bt)
		}
	}
	counters := make(map[string]*workload.CountersSnapshot)
	for _, node := range tb.PANUs {
		counters[node] = tpCounters(node)
	}
	dir := b.TempDir()
	sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0", AllowEmpty: true})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	heap := func() float64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	base := heap()
	var elapsed time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		key := fmt.Sprintf("ks%d", i)
		a, err := NewAgent(AgentConfig{Addr: sink.Addr(), Keyspace: key, Testbed: tb.Name,
			Nodes: tb.Nodes(), RetryMin: time.Millisecond, RetryMax: time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		for _, bt := range backlog {
			if err := a.Ingest(bt.testbed, bt.node, bt.reports, bt.entries, bt.watermark); err != nil {
				b.Fatal(err)
			}
		}
		finished := make(chan error, 1)
		go func() { finished <- a.Finish(counters, keyspaceBacklogDays*sim.Day, time.Minute) }()
		// The sink has turned the agent away once, so the whole backlog is
		// still in its buffer when the keyspace appears.
		for n, _ := a.Rejects(); n == 0; n, _ = a.Rejects() {
			time.Sleep(50 * time.Microsecond)
		}
		b.StartTimer()
		start := time.Now()
		if err := sink.Register(KeyspaceConfig{Key: key, Spec: spec,
			CheckpointPath: filepath.Join(dir, key+".ckpt")}); err != nil {
			b.Fatal(err)
		}
		if _, err := sink.WaitKeyspace(key, time.Minute); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(start)
		b.StopTimer()
		if err := <-finished; err != nil {
			b.Fatal(err)
		}
		a.Close()
	}
	var ckptBytes int64
	for _, km := range sink.Metrics().Keyspaces {
		ckptBytes += km.CheckpointBytes
	}
	retained := heap() - base
	runtime.KeepAlive(backlog) // live through both heap reads
	frames := float64(b.N * len(backlog))
	b.ReportMetric(float64(elapsed.Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(float64(ckptBytes)/frames, "ckpt-bytes/frame")
	b.ReportMetric(retained/1024/float64(b.N), "retained-KB/keyspace")
}
