// Package collector implements the paper's collection infrastructure: a
// LogAnalyzer daemon per BT node that periodically (i) extracts failure data
// from the node's Test Log and System Log, (ii) filters it so only
// significant data travels, and (iii) ships it to a central repository.
// Here the daemon is the Agent (one per testbed shard), the repository is
// the Sink, and the significance filter is Filter.
//
// Transport is TCP with length-prefixed frames, so the pieces run as real
// daemons (cmd/btagent and cmd/btsink) and are exercised over loopback in
// tests. Record batches travel in one compact binary encoding (varints,
// per-batch string interning, pooled buffers — marshalling cost and frame
// size are what bound month-scale campaigns).
//
// The sink folds batches into the running analysis.Aggregates as they
// arrive, with batch watermarks and 1-based per-stream sequence numbers
// keeping the fold order exact across retransmissions and reconnects, so
// sink memory is bounded by the agents' flush cadence rather than the
// campaign length. Batches lost in transit are surfaced, never swallowed:
// rejected frames count in Sink.Stats and unfilled sequence gaps in
// Aggregates.SeqGaps.
//
// The session protocol (Agent, Sink and the control frames in
// transport.go) gives at-least-once delivery across real OS processes:
// per-stream sequence cursors, cumulative acknowledgements,
// reconnect-and-resume handshakes, go-back-N retransmission, seeded fault
// injection for measuring the plane under an adversarial network, and
// durable sink checkpoints for crash recovery. The wire format — frame
// layout, kind byte, varint/zigzag encoding, string interning,
// watermark/sequence semantics, the resume handshake and the
// loss-accounting rules — is specified normatively in PROTOCOL.md at the
// repository root; OPERATIONS.md documents deployments.
package collector

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/sim"
)

// Batch is one shipment of a node's records from an agent to the sink.
type Batch struct {
	Node    string             `json:"node"`
	Testbed string             `json:"testbed"`
	Reports []core.UserReport  `json:"reports,omitempty"`
	Entries []core.SystemEntry `json:"entries,omitempty"`
	// Watermark is the sender's promise that every record of this node up
	// to that virtual instant has now been shipped; the sink folds records
	// once every node's watermark has passed them.
	Watermark sim.Time `json:"watermark,omitempty"`
	// Seq numbers a stream's batches from 1: retransmission and fault
	// injection can deliver a batch twice or out of order, and the sink
	// uses the sequence to apply each batch once, in send order (0
	// disables sequencing for hand-built batches).
	Seq uint64 `json:"seq,omitempty"`
}

// maxBatchBytes bounds a wire batch (guards the sink against garbage
// or runaway peers).
const maxBatchBytes = 64 << 20

// bufPool recycles encode/decode buffers: the hot path of a campaign ships
// thousands of batches, and per-frame slab allocation would dominate the
// collection plane's profile.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// WriteBatch frames and writes one batch: a 4-byte big-endian length
// prefix, the data frame kind byte, and the binary payload. The whole frame
// goes out in one Write from a pooled buffer.
func WriteBatch(w io.Writer, b *Batch) error {
	bufp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bufp)
	frame, err := appendBatchFrame((*bufp)[:0], b)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("collector: write frame: %w", err)
	}
	*bufp = frame[:0]
	return nil
}

// appendBatchFrame appends one complete data frame (length prefix + kind
// byte + payload) to frame.
func appendBatchFrame(frame []byte, b *Batch) ([]byte, error) {
	start := len(frame)
	frame = append(frame, 0, 0, 0, 0, byte(KindBatch)) // length backfilled below
	frame = appendBinaryBatch(frame, b)
	n := len(frame) - start - 4 // kind byte + payload
	if n > maxBatchBytes {
		return nil, fmt.Errorf("collector: batch of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame[start:], uint32(n))
	return frame, nil
}

// ReadBatch reads one data frame. io.EOF is returned unchanged when the
// stream ends cleanly between frames; any other frame kind is an error.
func ReadBatch(r io.Reader) (*Batch, error) {
	bufp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bufp)
	kind, blob, err := readEnvelope(r, bufp)
	if err != nil {
		return nil, err
	}
	if FrameKind(kind) != KindBatch {
		return nil, fmt.Errorf("collector: unknown frame kind %d", kind)
	}
	return decodeBinaryBatch(blob)
}

// readEnvelope reads one frame's length prefix, kind byte and body. The
// body is read into *buf, grown as needed, so it is valid only until the
// buffer's next use; the decoders copy what they keep. io.EOF is returned
// unchanged when the stream ends cleanly between frames.
func readEnvelope(r io.Reader, buf *[]byte) (kind byte, body []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("collector: read frame header: %w", err)
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n == 0 || n > maxBatchBytes {
		return 0, nil, fmt.Errorf("collector: implausible frame length %d", n)
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return 0, nil, fmt.Errorf("collector: read frame kind: %w", err)
	}
	if cap(*buf) < n-1 {
		*buf = make([]byte, 0, n-1)
	}
	body = (*buf)[:n-1]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("collector: read frame body: %w", err)
	}
	return hdr[4], body, nil
}

// The binary payload layout (version 2):
//
//	uvarint  version
//	uvarint  string-table length, then per string: uvarint len + bytes
//	uvarint  node index, testbed index
//	varint   watermark
//	uvarint  sequence number
//	uvarint  report count, then the reports
//	uvarint  entry count, then the entries
//
// All integers are varints (signed ones zigzag-encoded); strings are
// interned per batch, which collapses the node/testbed names and repeated
// daemon messages to one small index each.
//
// Each report ends with one taxonomy byte after TTR: the protocol phase in
// bits 0–3 and the transience verdict in bits 4–5. Out-of-range phase or
// verdict bits are rejected loudly, never clamped; any version other than
// 2 is refused.
const binaryVersion = 2

// stringTable interns strings in first-appearance order during encoding.
type stringTable struct {
	index map[string]uint64
	list  []string
}

// intern returns s's index in the table, appending s on its first
// appearance.
func (t *stringTable) intern(s string) uint64 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint64(len(t.list))
	t.index[s] = i
	t.list = append(t.list, s)
	return i
}

// Integers go out via binary.AppendUvarint / binary.AppendVarint (the
// latter zigzag-encodes, so the signed record fields cost one byte while
// small).

// appendBinaryBatch encodes b after the frame header.
func appendBinaryBatch(frame []byte, b *Batch) []byte {
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

	frame = binary.AppendUvarint(frame, binaryVersion)
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
		frame = append(frame, byte(r.Phase)&0x0F|byte(r.Verdict)<<4)
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
	return frame
}

// preallocHint bounds a wire-declared element count by the number of
// minimal-size elements the remaining payload bytes could encode.
func preallocHint(declared uint64, remaining, minSize int) uint64 {
	if remaining < 0 {
		return 0
	}
	if possible := uint64(remaining / minSize); declared > possible {
		return possible
	}
	return declared
}

// binReader decodes the binary payload with bounds checking.
type binReader struct {
	b   []byte
	off int
	err error
}

// fail records the first decode error, naming the field what and the
// offset it was read at; every later read then returns a zero value.
func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("collector: truncated or corrupt binary payload at %s (offset %d)", what, r.off)
	}
}

// uvarint reads an unsigned varint.
func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

// varint reads a zigzag-encoded signed varint.
func (r *binReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

// byte reads one raw byte.
func (r *binReader) byte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(what)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// f64 reads a little-endian IEEE 754 float64.
func (r *binReader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// bytes returns the next n bytes of the payload.
func (r *binReader) bytes(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(what)
		return nil
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

// str reads a string-table index and returns the interned string,
// failing on an index past the table.
func (r *binReader) str(table []string, what string) string {
	i := r.uvarint(what)
	if r.err != nil {
		return ""
	}
	if i >= uint64(len(table)) {
		r.fail(what + " string index")
		return ""
	}
	return table[i]
}

// decodeBinaryBatch decodes the payload into a fresh Batch (the input
// buffer is pooled; string() copies keep no reference to it).
func decodeBinaryBatch(blob []byte) (*Batch, error) {
	r := &binReader{b: blob}
	v := r.uvarint("version")
	if r.err == nil && v != binaryVersion {
		return nil, fmt.Errorf("collector: unsupported binary batch version %d", v)
	}
	nstr := r.uvarint("string table length")
	if r.err == nil && nstr > uint64(len(blob)) {
		r.fail("string table length")
	}
	// Preallocations are capped by what the remaining bytes could possibly
	// hold (1 byte per table entry, ~20/7 bytes per minimal record), so a
	// garbage count in a large frame cannot demand gigabytes up front —
	// append grows organically if a legitimate batch beats the estimate.
	table := make([]string, 0, preallocHint(nstr, len(blob)-r.off, 1))
	for i := uint64(0); i < nstr && r.err == nil; i++ {
		if s := r.bytes(r.uvarint("string length"), "string bytes"); r.err == nil {
			table = append(table, string(s))
		}
	}

	b := &Batch{}
	b.Node = r.str(table, "node")
	b.Testbed = r.str(table, "testbed")
	b.Watermark = sim.Time(r.varint("watermark"))
	b.Seq = r.uvarint("sequence")

	nrep := r.uvarint("report count")
	if r.err == nil && nrep > uint64(len(blob)) {
		r.fail("report count")
	}
	if r.err == nil && nrep > 0 {
		b.Reports = make([]core.UserReport, 0, preallocHint(nrep, len(blob)-r.off, 20))
	}
	for i := uint64(0); i < nrep && r.err == nil; i++ {
		var rec core.UserReport
		rec.At = sim.Time(r.varint("report at"))
		rec.Testbed = r.str(table, "report testbed")
		rec.Node = r.str(table, "report node")
		rec.Failure = core.UserFailure(r.varint("failure"))
		rec.Workload = core.WorkloadKind(r.varint("workload"))
		rec.App = core.AppKind(r.varint("app"))
		rec.Packet = core.PacketType(r.varint("packet"))
		rec.SentPkts = int(r.varint("sent"))
		rec.RecvdPkts = int(r.varint("recvd"))
		rec.CycleIdx = int(r.varint("cycle"))
		flags := r.byte("flags")
		rec.SDPFlag = flags&1 != 0
		rec.ScanFlag = flags&2 != 0
		rec.Masked = flags&4 != 0
		rec.Recovered = flags&8 != 0
		rec.DistanceM = r.f64("distance")
		rec.IdleBefore = sim.Time(r.varint("idle"))
		rec.ConnID = r.uvarint("conn id")
		rec.Recovery = core.RecoveryAction(r.varint("recovery"))
		rec.TTR = sim.Time(r.varint("ttr"))
		tax := r.byte("taxonomy")
		rec.Phase = core.FailurePhase(tax & 0x0F)
		rec.Verdict = core.TransienceVerdict(tax >> 4)
		if r.err == nil && (int(rec.Phase) > core.NumFailurePhases ||
			int(rec.Verdict) > core.NumTransienceVerdicts) {
			return nil, fmt.Errorf("collector: corrupt taxonomy byte 0x%02x (phase %d, verdict %d) in binary batch",
				tax, rec.Phase, rec.Verdict)
		}
		if r.err == nil {
			b.Reports = append(b.Reports, rec)
		}
	}

	nent := r.uvarint("entry count")
	if r.err == nil && nent > uint64(len(blob)) {
		r.fail("entry count")
	}
	if r.err == nil && nent > 0 {
		b.Entries = make([]core.SystemEntry, 0, preallocHint(nent, len(blob)-r.off, 7))
	}
	for i := uint64(0); i < nent && r.err == nil; i++ {
		var rec core.SystemEntry
		rec.At = sim.Time(r.varint("entry at"))
		rec.Testbed = r.str(table, "entry testbed")
		rec.Node = r.str(table, "entry node")
		rec.Source = core.SysSource(r.varint("source"))
		rec.Code = core.ErrorCode(r.varint("code"))
		rec.Detail = r.str(table, "detail")
		rec.ConnID = r.uvarint("entry conn id")
		if r.err == nil {
			b.Entries = append(b.Entries, rec)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(blob) {
		return nil, fmt.Errorf("collector: %d trailing bytes after binary batch", len(blob)-r.off)
	}
	return b, nil
}
