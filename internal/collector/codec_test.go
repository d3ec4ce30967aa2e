package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// TestCrossCodecEquivalence is the codec acceptance test: a batch that
// exercises every record field round-trips through the binary frame
// bit-exactly.
func TestCrossCodecEquivalence(t *testing.T) {
	in := fullBatch()
	var buf bytes.Buffer
	if err := WriteBatch(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatalf("binary decode: %v", err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("binary round trip diverges:\n got %+v\nwant %+v", got, in)
	}
}

// jsonBatchFrame renders b as a kind-1 frame with a JSON payload: the data
// frame of the retired JSON codec, which every reader must now refuse.
func jsonBatchFrame(t testing.TB, b *Batch) []byte {
	t.Helper()
	frame, err := jsonFrame(1, b)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// v1BatchFrame is b's binary frame with its version varint set to 1, the
// pre-taxonomy layout that is no longer decoded.
func v1BatchFrame(t testing.TB, b *Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBatch(&buf, b); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	frame[5] = 1 // the version varint follows the length prefix and kind byte
	return frame
}

// TestRetiredEncodingsRejected pins that the retired data encodings fail
// loudly at both readers: a kind-1 (JSON) frame is an unknown frame kind,
// and a binary batch of version 1 is an unsupported version.
func TestRetiredEncodingsRejected(t *testing.T) {
	readBatch := func(frame []byte) error {
		_, err := ReadBatch(bytes.NewReader(frame))
		return err
	}
	readFrame := func(frame []byte) error {
		_, err := ReadFrame(bytes.NewReader(frame))
		return err
	}
	cases := []struct {
		name    string
		frame   []byte
		read    func([]byte) error
		wantErr string
	}{
		{"json frame via ReadBatch", jsonBatchFrame(t, fullBatch()), readBatch, "unknown frame kind 1"},
		{"json frame via ReadFrame", jsonBatchFrame(t, fullBatch()), readFrame, "unknown frame kind 1"},
		{"v1 batch via ReadBatch", v1BatchFrame(t, fullBatch()), readBatch, "unsupported binary batch version 1"},
		{"v1 batch via ReadFrame", v1BatchFrame(t, fullBatch()), readFrame, "unsupported binary batch version 1"},
	}
	for _, tc := range cases {
		if err := tc.read(tc.frame); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestBinaryCodecRejectsCorruptTaxonomy pins the loud-rejection contract:
// a frame whose taxonomy byte encodes an out-of-range phase or verdict
// must fail the decode with a diagnostic, never clamp silently.
func TestBinaryCodecRejectsCorruptTaxonomy(t *testing.T) {
	in := &Batch{Node: "Verde", Testbed: "random",
		Reports: []core.UserReport{{
			At: sim.Minute, Testbed: "random", Node: "Verde",
			Failure: core.UFConnectFailed,
			Phase:   core.PhaseOpen, Verdict: core.VerdictTransient,
		}}}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, in); err != nil {
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

// TestBinaryCodecCompact pins the point of the binary encoding: its frame
// is several times smaller than encoding/json of the same realistic batch.
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
	var binBuf bytes.Buffer
	if err := WriteBatch(&binBuf, in); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if binBuf.Len()*4 > len(blob) {
		t.Errorf("binary frame %d B, json %d B — want at least 4x smaller", binBuf.Len(), len(blob))
	}
	t.Logf("200+200-record batch: binary %d B, json %d B (%.1fx)",
		binBuf.Len(), len(blob), float64(len(blob))/float64(binBuf.Len()))
}

// TestBinaryCodecRejectsCorruption flips every byte of a valid binary frame
// body and requires a clean error (or a decode, never a panic) — the
// sink faces the network.
func TestBinaryCodecRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, fullBatch()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for i := 5; i < len(frame); i++ { // skip length+kind header
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
