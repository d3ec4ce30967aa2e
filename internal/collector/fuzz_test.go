package collector

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// FuzzDecode throws arbitrary byte streams at the frame reader — the exact
// surface a hostile or corrupted peer reaches over TCP. The decoder must
// never panic, never hang, and never allocate absurdly off a garbage length
// field; and whatever it does accept must re-encode and re-decode to the
// same records (the round-trip law that keeps the sink's streaming
// fold exact).
//
// The seed corpus is real frames: the full-field batch of the codec suite,
// a minimal empty batch, and a watermark-only heartbeat, plus truncations
// and kind-byte corruptions of them. Each batch also goes in as the
// retired encodings would have framed it — a kind-1 JSON frame (with its
// truncation and kind corruption) and a version-1 binary frame — which
// the reader must reject without a panic.
func FuzzDecode(f *testing.F) {
	seeds := []*Batch{
		fullBatch(),
		{Node: "n", Testbed: "t"},
		{Node: "Verde", Testbed: "random", Watermark: 3 * sim.Hour, Seq: 9},
		{Node: "W", Testbed: "realistic", Seq: 1, Entries: []core.SystemEntry{
			{At: -5, Node: "W", Source: core.SrcHCI, Code: core.CodeHCICommandTimeout, Detail: ""},
		}},
	}
	for _, b := range seeds {
		var buf bytes.Buffer
		if err := WriteBatch(&buf, b); err != nil {
			f.Fatal(err)
		}
		for _, frame := range [][]byte{buf.Bytes(), jsonBatchFrame(f, b)} {
			f.Add(frame)
			// Truncated and kind-corrupted variants steer the fuzzer into
			// the decoder's error paths from the first generation on.
			f.Add(frame[:len(frame)/2])
			mangled := append([]byte(nil), frame...)
			mangled[4] ^= 0xFF
			f.Add(mangled)
		}
		f.Add(v1BatchFrame(f, b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBatch(bytes.NewReader(data))
		if err != nil {
			return // rejected garbage is the expected outcome
		}
		// Accepted frames must satisfy the round-trip law.
		var buf bytes.Buffer
		if err := WriteBatch(&buf, b); err != nil {
			t.Fatalf("re-encode of accepted batch failed: %v", err)
		}
		again, err := ReadBatch(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted batch failed: %v", err)
		}
		if !batchEqual(b, again) {
			t.Fatalf("round-trip changed the batch:\nfirst  %+v\nsecond %+v", b, again)
		}
	})
}

// batchEqual compares batches, treating empty and nil record slices as
// equal (a hand-built batch may carry empty slices, the binary decoder
// never materializes them).
func batchEqual(a, b *Batch) bool {
	if a.Node != b.Node || a.Testbed != b.Testbed ||
		a.Watermark != b.Watermark || a.Seq != b.Seq {
		return false
	}
	if len(a.Reports) != len(b.Reports) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Reports {
		if a.Reports[i] != b.Reports[i] {
			return false
		}
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// FuzzControlFrame throws arbitrary byte streams at the control-plane
// surface of ReadFrame — the hello/resume/ack/done/fin/reject JSON frames a
// malformed or hostile peer can send a sink or an agent. The decoder must
// never panic or hang; whatever it accepts must carry the right payload for
// its kind byte, and accepted control frames must survive a re-encode with
// writeControl and re-decode to the same kind (the handshake's round-trip
// law).
//
// The seed corpus is every control frame the real session writes, plus
// truncations and kind-byte corruptions of each.
func FuzzControlFrame(f *testing.F) {
	id := CampaignID{Seed: 7, Duration: 24 * sim.Hour, Scenario: 3}
	seeds := []struct {
		kind    byte
		payload any
	}{
		{frameHello, &Hello{Campaign: id, Testbed: "random", Nodes: []string{"a1", "napA"}}},
		{frameResume, &Resume{Cursors: []StreamCursor{{Node: "a1", Seq: 12, Watermark: 3 * sim.Hour}}}},
		{frameAck, &Ack{Node: "a1", Seq: 12, Watermark: 3 * sim.Hour}},
		{frameDone, &Done{Testbed: "random", Duration: 24 * sim.Hour,
			Final: []StreamCursor{{Node: "a1", Seq: 24}}}},
		{frameFin, &Fin{}},
		{frameReject, &Reject{Reason: "campaign mismatch"}},
	}
	for _, s := range seeds {
		var buf bytes.Buffer
		if err := writeControl(&buf, s.kind, s.payload); err != nil {
			f.Fatal(err)
		}
		frame := buf.Bytes()
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		mangled := append([]byte(nil), frame...)
		mangled[4] ^= 0xFF
		f.Add(mangled)
		empty := append([]byte(nil), frame[:5]...) // kind with no payload
		f.Add(empty)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected garbage is the expected outcome
		}
		// An accepted frame must carry the payload its kind promises.
		var rekind byte
		var payload any
		switch fr.Kind {
		case KindBatch:
			return // FuzzDecode owns the data plane
		case KindHello:
			if fr.Hello == nil {
				t.Fatal("accepted hello frame with nil payload")
			}
			rekind, payload = frameHello, fr.Hello
		case KindResume:
			if fr.Resume == nil {
				t.Fatal("accepted resume frame with nil payload")
			}
			rekind, payload = frameResume, fr.Resume
		case KindAck:
			if fr.Ack == nil {
				t.Fatal("accepted ack frame with nil payload")
			}
			rekind, payload = frameAck, fr.Ack
		case KindDone:
			if fr.Done == nil {
				t.Fatal("accepted done frame with nil payload")
			}
			rekind, payload = frameDone, fr.Done
		case KindFin:
			rekind, payload = frameFin, &Fin{}
		case KindReject:
			if fr.Reject == nil {
				t.Fatal("accepted reject frame with nil payload")
			}
			rekind, payload = frameReject, fr.Reject
		default:
			t.Fatalf("accepted frame of unknown kind %d", fr.Kind)
		}
		var buf bytes.Buffer
		if err := writeControl(&buf, rekind, payload); err != nil {
			t.Fatalf("re-encode of accepted control frame failed: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted control frame failed: %v", err)
		}
		if again.Kind != fr.Kind {
			t.Fatalf("round-trip changed the frame kind: %d -> %d", fr.Kind, again.Kind)
		}
	})
}

// TestFuzzControlSeedCorpusRoundTrips drives each real control frame
// through writeControl/ReadFrame on every `go test` run even without -fuzz.
func TestFuzzControlSeedCorpusRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	id := CampaignID{Seed: 7, Duration: 24 * sim.Hour, Scenario: 3}
	if err := writeControl(&buf, frameHello, &Hello{Campaign: id, Testbed: "random",
		Nodes: []string{"a1"}}); err != nil {
		t.Fatal(err)
	}
	if err := writeControl(&buf, frameAck, &Ack{Node: "a1", Seq: 3}); err != nil {
		t.Fatal(err)
	}
	if err := writeControl(&buf, frameFin, &Fin{}); err != nil {
		t.Fatal(err)
	}
	wantKinds := []FrameKind{KindHello, KindAck, KindFin}
	for i, want := range wantKinds {
		fr, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Kind != want {
			t.Fatalf("frame %d: kind %d, want %d", i, fr.Kind, want)
		}
	}
	if fr := (&Frame{}); fr.Kind != KindBatch {
		t.Fatal("zero Frame is not a batch frame") // pins the kind enum's zero
	}
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 2, 9, '{', '}'})); err == nil {
		t.Error("unknown kind byte 9 decoded without error")
	}
}

// TestFuzzSeedCorpusRoundTrips runs the fuzz body over the seed corpus
// directly, so the round-trip law is enforced on every `go test` run even
// without -fuzz.
func TestFuzzSeedCorpusRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	in := fullBatch()
	if err := WriteBatch(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBatch(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !batchEqual(in, out) {
		t.Error("decoded batch diverges from input")
	}
	if !reflect.DeepEqual(in.Reports, out.Reports) || !reflect.DeepEqual(in.Entries, out.Entries) {
		t.Error("record slices diverge")
	}
	// The retired encodings are rejected, not decoded.
	for _, frame := range [][]byte{jsonBatchFrame(t, in), v1BatchFrame(t, in)} {
		if _, err := ReadBatch(bytes.NewReader(frame)); err == nil {
			t.Errorf("retired frame %x... decoded", frame[:6])
		}
	}
	// The reader must also cleanly reject an empty stream and a bare header.
	if _, err := ReadBatch(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	if _, err := ReadBatch(bytes.NewReader([]byte{0, 0, 0})); err == nil {
		t.Error("3-byte stream decoded without error")
	}
}
