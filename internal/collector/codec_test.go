package collector

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// fullBatch exercises every field of both record types, including negative
// and boundary values the varint zigzag must survive.
func fullBatch() *Batch {
	return &Batch{
		Node: "Verde", Testbed: "random", Watermark: 9 * sim.Hour,
		Reports: []core.UserReport{
			{
				At: 90*sim.Minute + 17, Testbed: "random", Node: "Verde",
				Failure: core.UFPANConnectFailed, Workload: core.WLRealistic,
				App: core.AppP2P, Packet: core.PTDH5,
				SentPkts: 123456, RecvdPkts: 98765, CycleIdx: 17,
				SDPFlag: true, ScanFlag: false, DistanceM: 7.25,
				IdleBefore: 27 * sim.Second, ConnID: 1 << 62,
				Masked: true, Recovered: true, Recovery: core.RABTStackReset,
				TTR:   95 * sim.Second,
				Phase: core.PhaseOpen, Verdict: core.VerdictDynamicAvailability,
			},
			{At: 0, Node: "Win", Failure: core.UFPacketLoss, DistanceM: 0.5,
				Phase: core.PhaseSend, Verdict: core.VerdictTransient},
		},
		Entries: []core.SystemEntry{
			{
				At: 2 * sim.Hour, Testbed: "random", Node: "Giallo",
				Source: core.SrcHCI, Code: core.CodeHCICommandTimeout,
				Detail: "command timeout (hci_cmd)", ConnID: 42,
			},
			{At: 2 * sim.Hour, Node: "Verde", Source: core.SrcBNEP, Code: core.CodeBNEPAddFailed},
		},
	}
}

// TestCrossCodecEquivalence is the codec acceptance test: the same batch
// written with the binary codec and with the JSON debug codec decodes to
// deep-equal records, and each codec round-trips bit-exactly.
func TestCrossCodecEquivalence(t *testing.T) {
	in := fullBatch()
	var binBuf, jsonBuf bytes.Buffer
	if err := WriteBatchCodec(&binBuf, in, CodecBinary); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatchCodec(&jsonBuf, in, CodecJSON); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBatch(&binBuf)
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	fromJSON, err := ReadBatch(&jsonBuf)
	if err != nil {
		t.Fatalf("json decode: %v", err)
	}
	if !reflect.DeepEqual(fromBin, in) {
		t.Errorf("binary round trip diverges:\n got %+v\nwant %+v", fromBin, in)
	}
	if !reflect.DeepEqual(fromJSON, in) {
		t.Errorf("json round trip diverges:\n got %+v\nwant %+v", fromJSON, in)
	}
	if !reflect.DeepEqual(fromBin, fromJSON) {
		t.Error("binary and json decodes disagree")
	}
}

// encodeV1Frame hand-builds a version-1 binary frame for b: the pre-taxonomy
// wire layout, byte for byte — the version tag says 1 and no taxonomy byte
// follows TTR. This is what every agent built before PR 10 puts on the wire.
func encodeV1Frame(b *Batch) []byte {
	tab := &stringTable{index: make(map[string]uint64, 8)}
	tab.intern(b.Node)
	tab.intern(b.Testbed)
	for i := range b.Reports {
		tab.intern(b.Reports[i].Testbed)
		tab.intern(b.Reports[i].Node)
	}
	for i := range b.Entries {
		tab.intern(b.Entries[i].Testbed)
		tab.intern(b.Entries[i].Node)
		tab.intern(b.Entries[i].Detail)
	}
	frame := []byte{0, 0, 0, 0, byte(CodecBinary)}
	frame = binary.AppendUvarint(frame, legacyBinaryVersion)
	frame = binary.AppendUvarint(frame, uint64(len(tab.list)))
	for _, s := range tab.list {
		frame = binary.AppendUvarint(frame, uint64(len(s)))
		frame = append(frame, s...)
	}
	frame = binary.AppendUvarint(frame, tab.intern(b.Node))
	frame = binary.AppendUvarint(frame, tab.intern(b.Testbed))
	frame = binary.AppendVarint(frame, int64(b.Watermark))
	frame = binary.AppendUvarint(frame, b.Seq)
	frame = binary.AppendUvarint(frame, uint64(len(b.Reports)))
	for i := range b.Reports {
		r := &b.Reports[i]
		frame = binary.AppendVarint(frame, int64(r.At))
		frame = binary.AppendUvarint(frame, tab.intern(r.Testbed))
		frame = binary.AppendUvarint(frame, tab.intern(r.Node))
		frame = binary.AppendVarint(frame, int64(r.Failure))
		frame = binary.AppendVarint(frame, int64(r.Workload))
		frame = binary.AppendVarint(frame, int64(r.App))
		frame = binary.AppendVarint(frame, int64(r.Packet))
		frame = binary.AppendVarint(frame, int64(r.SentPkts))
		frame = binary.AppendVarint(frame, int64(r.RecvdPkts))
		frame = binary.AppendVarint(frame, int64(r.CycleIdx))
		var flags byte
		if r.SDPFlag {
			flags |= 1
		}
		if r.ScanFlag {
			flags |= 2
		}
		if r.Masked {
			flags |= 4
		}
		if r.Recovered {
			flags |= 8
		}
		frame = append(frame, flags)
		frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(r.DistanceM))
		frame = binary.AppendVarint(frame, int64(r.IdleBefore))
		frame = binary.AppendUvarint(frame, r.ConnID)
		frame = binary.AppendVarint(frame, int64(r.Recovery))
		frame = binary.AppendVarint(frame, int64(r.TTR))
	}
	frame = binary.AppendUvarint(frame, uint64(len(b.Entries)))
	for i := range b.Entries {
		e := &b.Entries[i]
		frame = binary.AppendVarint(frame, int64(e.At))
		frame = binary.AppendUvarint(frame, tab.intern(e.Testbed))
		frame = binary.AppendUvarint(frame, tab.intern(e.Node))
		frame = binary.AppendVarint(frame, int64(e.Source))
		frame = binary.AppendVarint(frame, int64(e.Code))
		frame = binary.AppendUvarint(frame, tab.intern(e.Detail))
		frame = binary.AppendUvarint(frame, e.ConnID)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return frame
}

// TestBinaryCodecV1CrossVersion pins the cross-version contract: a
// version-1 frame (a pre-taxonomy agent) decodes losslessly, with both
// taxonomy tags at their zero values — never an error, never garbage tags.
func TestBinaryCodecV1CrossVersion(t *testing.T) {
	in := fullBatch()
	got, err := ReadBatch(bytes.NewReader(encodeV1Frame(in)))
	if err != nil {
		t.Fatalf("v1 frame rejected: %v", err)
	}
	want := fullBatch()
	for i := range want.Reports {
		want.Reports[i].Phase = core.PhaseUnknown
		want.Reports[i].Verdict = core.VerdictUnknown
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("v1 decode diverges:\n got %+v\nwant %+v", got, want)
	}
	// And the re-encoded (v2) frame round-trips the same records.
	var buf bytes.Buffer
	if err := WriteBatchCodec(&buf, got, CodecBinary); err != nil {
		t.Fatal(err)
	}
	again, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("v1 -> v2 re-encode round trip diverges")
	}
}

// TestBinaryCodecRejectsCorruptTaxonomy pins the loud-rejection contract:
// a v2 frame whose taxonomy byte encodes an out-of-range phase or verdict
// must fail the decode with a diagnostic, never clamp silently.
func TestBinaryCodecRejectsCorruptTaxonomy(t *testing.T) {
	in := &Batch{Node: "Verde", Testbed: "random",
		Reports: []core.UserReport{{
			At: sim.Minute, Testbed: "random", Node: "Verde",
			Failure: core.UFConnectFailed,
			Phase:   core.PhaseOpen, Verdict: core.VerdictTransient,
		}}}
	var buf bytes.Buffer
	if err := WriteBatchCodec(&buf, in, CodecBinary); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	// One report, zero entries: the frame ends with the report's taxonomy
	// byte followed by the single-byte entry count.
	taxOff := len(frame) - 2
	for _, tax := range []byte{0xFF, 0x0F, 0xF1} {
		mut := append([]byte(nil), frame...)
		mut[taxOff] = tax
		_, err := ReadBatch(bytes.NewReader(mut))
		if err == nil {
			t.Errorf("taxonomy byte 0x%02x accepted", tax)
			continue
		}
		if !strings.Contains(err.Error(), "corrupt taxonomy byte") {
			t.Errorf("taxonomy byte 0x%02x rejected with the wrong diagnostic: %v", tax, err)
		}
	}
	// The unmutated frame still decodes (the offset arithmetic above really
	// did point at the taxonomy byte, not something else).
	if _, err := ReadBatch(bytes.NewReader(frame)); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}
}

// TestBinaryCodecCompact pins the point of the rewrite: the binary frame is
// several times smaller than the JSON frame for a realistic batch.
func TestBinaryCodecCompact(t *testing.T) {
	in := &Batch{Node: "Verde", Testbed: "random"}
	for i := 0; i < 200; i++ {
		in.Reports = append(in.Reports, core.UserReport{
			At: sim.Time(i) * sim.Minute, Testbed: "random", Node: "Verde",
			Failure: core.UFPacketLoss, Workload: core.WLRandom,
			Packet: core.PTDM1, SentPkts: i * 7, RecvdPkts: i * 6,
			DistanceM: 5, Recovered: true, Recovery: core.RAIPSocketReset,
			TTR: 9 * sim.Second,
		})
		in.Entries = append(in.Entries, core.SystemEntry{
			At: sim.Time(i)*sim.Minute + sim.Second, Testbed: "random",
			Node: "Verde", Source: core.SrcHCI, Code: core.CodeHCICommandTimeout,
			Detail: "command timeout (hci_cmd)",
		})
	}
	var binBuf, jsonBuf bytes.Buffer
	if err := WriteBatchCodec(&binBuf, in, CodecBinary); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatchCodec(&jsonBuf, in, CodecJSON); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len()*4 > jsonBuf.Len() {
		t.Errorf("binary frame %d B, json frame %d B — want at least 4x smaller",
			binBuf.Len(), jsonBuf.Len())
	}
	t.Logf("200+200-record batch: binary %d B, json %d B (%.1fx)",
		binBuf.Len(), jsonBuf.Len(), float64(jsonBuf.Len())/float64(binBuf.Len()))
}

// TestBinaryCodecRejectsCorruption flips every byte of a valid binary frame
// body and requires a clean error (or a decode, never a panic) — the
// sink faces the network.
func TestBinaryCodecRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatchCodec(&buf, fullBatch(), CodecBinary); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := 5; i < len(frame); i++ { // skip length+codec header
		mut := append([]byte{}, frame...)
		mut[i] ^= 0xFF
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("decoder panicked on corrupt byte %d: %v", i, p)
				}
			}()
			_, _ = ReadBatch(bytes.NewReader(mut))
		}()
	}
	// Truncations at every length.
	for i := 5; i < len(frame); i++ {
		if _, err := ReadBatch(bytes.NewReader(frame[:i])); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", i)
		}
	}
}

// TestBinaryCodecRejectsHugeStringLength: a string length of 2^63 or more
// used to wrap negative as an int and panic the slice expression instead of
// failing the decode.
func TestBinaryCodecRejectsHugeStringLength(t *testing.T) {
	blob := binary.AppendUvarint(nil, binaryVersion)
	blob = binary.AppendUvarint(blob, 1)     // one interned string
	blob = binary.AppendUvarint(blob, 1<<63) // its length
	if _, err := decodeBinaryBatch(blob); err == nil {
		t.Fatal("string length 2^63 decoded without error")
	}
}

// TestParseCodec pins the flag surface.
func TestParseCodec(t *testing.T) {
	for s, want := range map[string]Codec{"": CodecBinary, "binary": CodecBinary, "json": CodecJSON} {
		got, err := ParseCodec(s)
		if err != nil || got != want {
			t.Errorf("ParseCodec(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseCodec("xml"); err == nil {
		t.Error("unknown codec accepted")
	}
}
