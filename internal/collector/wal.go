package collector

// The agent-side write-ahead spill log (WAL) and the torn-write-guarded
// checkpoint file helpers. Together they close the two crash windows PR 5
// left open: an agent kill -9 no longer loses unacknowledged batches (they
// replay from the WAL through the ordinary resume handshake), and a sink
// (or sweep) checkpoint torn mid-write no longer poisons a restart (the
// trailer detects it and restore falls back to the previous good file).
//
// WAL file format (normative in PROTOCOL.md §10):
//
//	record := length (4 B big-endian u32, counts type+payload)
//	          type   (1 B)
//	          payload
//	          crc32  (4 B big-endian, IEEE, over type+payload)
//
// Record types: 1 header (JSON: campaign identity, testbed, acked cursors
// as of the last compaction), 2 frame (one encoded data frame, exactly the
// bytes offered to the uplink), 3 ack (JSON: one stream's cumulative
// acknowledged sequence). A file is a header followed by frame/ack records
// in append order. Replay stops at the first torn or CRC-corrupt record and
// truncates the file there: a record torn by the kill was not yet on the
// wire as an acknowledged batch, and the deterministic shard re-run
// regenerates its batch, so truncation never loses campaign data.
//
// Appends are plain synchronous writes without fsync: the crash model is a
// killed PROCESS (kill -9, OOM, panic), where the page cache survives and
// ordering is preserved. Machine-level power loss is out of scope — the
// shard simulation is deterministic, so even that only costs a re-run.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

// WAL record types.
const (
	walRecHeader byte = 1
	walRecFrame  byte = 2
	walRecAck    byte = 3
)

// walOverhead is the per-record framing cost: 4-byte length, 1-byte type,
// 4-byte CRC.
const walOverhead = 9

// walAckEvery is how far a stream's cumulative acknowledgement may advance
// before the WAL durably records it. Ack records exist only to shrink the
// replay (and are re-anchored at every compaction anyway); deferring them
// costs a restart at most walAckEvery already-acknowledged frames per
// stream, which the resume handshake prunes and the sink's duplicate filter
// absorbs — while halving the append syscalls on the hot ingest path.
const walAckEvery = 32

// walFlushThreshold caps the in-memory pending buffer: appendFrame flushes
// to disk once this many buffered bytes accumulate, whatever the caller's
// flush policy, so a long-lived session cannot defer durability without
// bound.
const walFlushThreshold = 64 << 10

// maxWALRecord bounds one WAL record's declared length (same guard as the
// wire: a corrupt length field must not demand gigabytes).
const maxWALRecord = maxBatchBytes + walOverhead

// walHeader is the WAL's first record: the campaign identity that guards a
// stale spill directory from contaminating a different campaign, and the
// acknowledged cursors as of the last compaction (acks recorded after the
// header arrive as walRecAck records).
type walHeader struct {
	Campaign CampaignID        `json:"campaign"`
	Testbed  string            `json:"testbed"`
	Acked    map[string]uint64 `json:"acked,omitempty"`
}

// walAck is one acknowledgement record: a stream's cumulative acknowledged
// sequence number.
type walAck struct {
	Node string `json:"node"`
	Seq  uint64 `json:"seq"`
}

// walFrame is one replayed unacknowledged data frame: the decoded batch
// (for its sequence/stream identity) plus the exact encoded bytes to
// retransmit.
type walFrame struct {
	batch *Batch
	raw   []byte
}

// walStream is one stream's replayed state: the highest sequence number
// ever assigned to the stream (acknowledged or not — the restart's ingest
// skip cursor), the cumulative acknowledged sequence, and the surviving
// unacknowledged frames in ascending sequence order.
type walStream struct {
	last   uint64
	acked  uint64
	frames []walFrame
}

// wal is an agent's open write-ahead spill log. All methods are called with
// the owning Agent's mutex held, which serializes appends, acknowledgement
// truncation and compaction against each other.
type wal struct {
	path      string
	f         *os.File
	campaign  CampaignID
	testbed   string
	acked     map[string]uint64
	ackOnDisk map[string]uint64 // cumulative acks durably recorded so far
	ackEvery  uint64            // ack advance before a durable record; tests set 1
	pending   []byte            // appended records not yet written to the file
	live      int64             // bytes of records covering unacknowledged frames
	dead      int64             // reclaimable bytes: header, ack records, acked frames
	budget    int64             // live-byte bound; 0 = unbounded
}

// walPath names a testbed shard's WAL file inside a spill directory.
func walPath(dir, testbed string) string {
	return filepath.Join(dir, testbed+".wal")
}

// appendWALRecord appends one framed record to buf.
func appendWALRecord(buf []byte, typ byte, payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(1+len(payload)))
	buf = append(buf, hdr[:]...)
	body := len(buf)
	buf = append(buf, typ)
	buf = append(buf, payload...)
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc32.ChecksumIEEE(buf[body:]))
	return append(buf, tail[:]...)
}

// walRecordSize is the on-disk size of a record with the given payload
// length.
func walRecordSize(payloadLen int) int64 {
	return int64(payloadLen) + walOverhead
}

// readWALRecord reads one record from blob at off. It returns the record
// type, payload, and the offset after the record; ok is false when the
// remaining bytes do not hold one intact, CRC-valid record (a torn tail).
func readWALRecord(blob []byte, off int) (typ byte, payload []byte, next int, ok bool) {
	if off+4 > len(blob) {
		return 0, nil, off, false
	}
	n := binary.BigEndian.Uint32(blob[off : off+4])
	if n < 1 || n > maxWALRecord {
		return 0, nil, off, false
	}
	end := off + 4 + int(n) + 4
	if end > len(blob) {
		return 0, nil, off, false
	}
	body := blob[off+4 : off+4+int(n)]
	want := binary.BigEndian.Uint32(blob[off+4+int(n) : end])
	if crc32.ChecksumIEEE(body) != want {
		return 0, nil, off, false
	}
	return body[0], body[1:], end, true
}

// openWAL opens (or creates) a shard's spill log and replays it. It returns
// the open log and the per-stream replayed state. A torn tail — the record
// a kill -9 interrupted mid-append — is truncated away; a WAL recorded
// under a different campaign or testbed is refused loudly.
func openWAL(dir, testbed string, campaign CampaignID, budget int64) (*wal, map[string]*walStream, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("collector: spill dir: %w", err)
	}
	path := walPath(dir, testbed)
	w := &wal{path: path, campaign: campaign, testbed: testbed,
		acked: make(map[string]uint64), ackOnDisk: make(map[string]uint64),
		ackEvery: walAckEvery, budget: budget}
	blob, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("collector: read spill log: %w", err)
	}

	streams := make(map[string]*walStream)
	get := func(node string) *walStream {
		st := streams[node]
		if st == nil {
			st = &walStream{}
			streams[node] = st
		}
		return st
	}
	good := 0 // offset after the last intact record
	if len(blob) > 0 {
		typ, payload, next, ok := readWALRecord(blob, 0)
		if !ok || typ != walRecHeader {
			// Unreadable header: the file never got a complete first record
			// (killed inside the very first append). Start over.
			blob = nil
		} else {
			var hdr walHeader
			if err := json.Unmarshal(payload, &hdr); err != nil {
				return nil, nil, fmt.Errorf("collector: corrupt spill log header %s: %w", path, err)
			}
			if hdr.Campaign != campaign || hdr.Testbed != testbed {
				return nil, nil, fmt.Errorf("collector: spill log %s is from a different campaign or shard "+
					"(%s, seed %d, %v, scenario %d; this agent runs %s, seed %d, %v, scenario %d) — "+
					"delete it to start over", path,
					hdr.Testbed, hdr.Campaign.Seed, hdr.Campaign.Duration, hdr.Campaign.Scenario,
					testbed, campaign.Seed, campaign.Duration, campaign.Scenario)
			}
			for node, seq := range hdr.Acked {
				w.acked[node] = seq
				if st := get(node); st.acked < seq {
					st.acked = seq
					if st.last < seq {
						st.last = seq
					}
				}
			}
			w.dead += walRecordSize(len(payload))
			good = next
			for good < len(blob) {
				typ, payload, next, ok = readWALRecord(blob, good)
				if !ok {
					break // torn tail: truncate here
				}
				switch typ {
				case walRecFrame:
					fr, err := ReadFrame(bytes.NewReader(payload))
					if err != nil || fr.Kind != KindBatch {
						// An intact record holding an undecodable frame is
						// corruption beyond a torn append; stop replay here
						// like a torn tail (the deterministic re-run
						// regenerates everything past this point).
						ok = false
					} else {
						b := fr.Batch
						st := get(b.Node)
						raw := append([]byte(nil), payload...)
						st.frames = append(st.frames, walFrame{batch: b, raw: raw})
						if st.last < b.Seq {
							st.last = b.Seq
						}
					}
				case walRecAck:
					var a walAck
					if err := json.Unmarshal(payload, &a); err != nil {
						ok = false
					} else {
						if w.acked[a.Node] < a.Seq {
							w.acked[a.Node] = a.Seq
						}
						st := get(a.Node)
						if st.acked < a.Seq {
							st.acked = a.Seq
						}
						if st.last < a.Seq {
							st.last = a.Seq
						}
						w.dead += walRecordSize(len(payload))
					}
				default:
					ok = false // unknown record type: treat as corruption
				}
				if !ok {
					break
				}
				good = next
			}
		}
	}
	// Drop acknowledged frames from the replayed streams and account the
	// surviving ones as live bytes.
	for _, st := range streams {
		keep := st.frames[:0]
		for _, f := range st.frames {
			if f.batch.Seq > st.acked {
				keep = append(keep, f)
				w.live += walRecordSize(len(f.raw))
			} else {
				w.dead += walRecordSize(len(f.raw))
			}
		}
		st.frames = keep
	}

	if blob == nil || good == 0 {
		// Fresh file (or one with an unreadable header): write the header.
		hdrPayload, err := json.Marshal(&walHeader{Campaign: campaign, Testbed: testbed})
		if err != nil {
			return nil, nil, err
		}
		rec := appendWALRecord(nil, walRecHeader, hdrPayload)
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, rec, 0o644); err != nil {
			return nil, nil, fmt.Errorf("collector: create spill log: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, nil, fmt.Errorf("collector: create spill log: %w", err)
		}
		w.dead = walRecordSize(len(hdrPayload))
		w.live = 0
	} else if good < len(blob) {
		// Torn tail: cut the file back to the last intact record.
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, nil, fmt.Errorf("collector: truncate torn spill log: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("collector: open spill log: %w", err)
	}
	w.f = f
	for node, seq := range w.acked {
		w.ackOnDisk[node] = seq // everything replayed came from durable records
	}
	return w, streams, nil
}

// appendFrame spills one encoded data frame. With flush set (or once the
// pending buffer passes walFlushThreshold) the record reaches the file
// before appendFrame returns; otherwise it is buffered until the next
// flush — the owning agent flushes before any frame is offered to the
// uplink, so a buffered record is by construction one that has never been
// sent, and losing it to a crash only costs the deterministic re-run a
// regeneration. appendFrame fails loudly when the spill budget would be
// exceeded — a sink outage has then outlasted what the operator
// provisioned for.
func (w *wal) appendFrame(raw []byte, flushNow bool) error {
	if w.f == nil {
		return errors.New("collector: spill log is closed")
	}
	sz := walRecordSize(len(raw))
	if w.budget > 0 && w.live+sz > w.budget {
		return fmt.Errorf("collector: spill budget exceeded: %d bytes of unacknowledged batches "+
			"+ %d new would pass the %d-byte budget (sink unreachable for too long?)",
			w.live, sz, w.budget)
	}
	w.pending = appendWALRecord(w.pending, walRecFrame, raw)
	w.live += sz
	if flushNow || len(w.pending) >= walFlushThreshold {
		return w.flush()
	}
	return nil
}

// flush writes every pending record to the file.
func (w *wal) flush() error {
	if w.f == nil || len(w.pending) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.pending); err != nil {
		return fmt.Errorf("collector: spill append: %w", err)
	}
	w.pending = w.pending[:0]
	return nil
}

// noteAck records one stream's cumulative acknowledgement and moves the
// freed frame bytes from live to reclaimable. freed is the on-disk size of
// the frames this acknowledgement released (walRecordSize per frame). The
// durable ack record is deferred until the stream has advanced ackEvery
// sequences past its last recorded cursor — see walAckEvery for why that
// lag is safe.
func (w *wal) noteAck(node string, seq uint64, freed int64) error {
	if w.f == nil {
		return nil // closed during shutdown: acks are already durable at the sink
	}
	if w.acked[node] >= seq {
		return nil
	}
	w.acked[node] = seq
	w.live -= freed
	if w.live < 0 {
		w.live = 0
	}
	w.dead += freed
	if seq-w.ackOnDisk[node] < w.ackEvery {
		return nil // defer: a restart resends the short acked tail, the sink dedups it
	}
	payload, err := json.Marshal(&walAck{Node: node, Seq: seq})
	if err != nil {
		return err
	}
	w.pending = appendWALRecord(w.pending, walRecAck, payload)
	w.ackOnDisk[node] = seq
	w.dead += walRecordSize(len(payload))
	return nil
}

// shouldCompact reports whether enough reclaimable bytes have accumulated
// to be worth rewriting the file (acked frames + ack records dominate it).
func (w *wal) shouldCompact() bool {
	if w.f == nil {
		return false
	}
	return w.dead > 1<<20 || (w.dead > 1<<12 && w.dead > w.live)
}

// compact rewrites the log as a fresh header (carrying the acknowledged
// cursors) plus the surviving unacknowledged frames, via atomic rename.
// raws must be every unacknowledged frame in send order — exactly the
// owning agent's buffered raw frames.
func (w *wal) compact(raws [][]byte) error {
	if w.f == nil {
		return nil
	}
	hdrPayload, err := json.Marshal(&walHeader{Campaign: w.campaign, Testbed: w.testbed, Acked: w.acked})
	if err != nil {
		return err
	}
	buf := appendWALRecord(nil, walRecHeader, hdrPayload)
	var live int64
	for _, raw := range raws {
		buf = appendWALRecord(buf, walRecFrame, raw)
		live += walRecordSize(len(raw))
	}
	tmp := w.path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("collector: spill compaction: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fmt.Errorf("collector: spill compaction: %w", err)
	}
	f, err := os.OpenFile(w.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("collector: spill compaction reopen: %w", err)
	}
	w.f.Close()
	w.f = f
	for node, seq := range w.acked {
		w.ackOnDisk[node] = seq // the fresh header carries every cursor
	}
	w.pending = w.pending[:0] // the rewrite covered everything buffered
	w.live = live
	w.dead = walRecordSize(len(hdrPayload))
	return nil
}

// close flushes pending records and closes the log file; further appends
// become no-ops.
func (w *wal) close() {
	if w.f != nil {
		w.flush()
		w.f.Close()
		w.f = nil
	}
}

// abort closes the log file WITHOUT flushing pending records — the
// in-process double of kill -9, which loses whatever had not reached the
// page cache yet.
//
// Test seam: Agent.Abort, for TestAgentSpillKillResume.
func (w *wal) abort() {
	if w.f != nil {
		w.pending = nil
		w.f.Close()
		w.f = nil
	}
}

// Torn-write-guarded checkpoint files. A checkpoint payload is written as
// payload || trailer, where the 12-byte trailer is
//
//	magic "btck" (4 B) || payload length (4 B big-endian) || CRC32-IEEE (4 B)
//
// and every write rotates the previous good file to path+".prev" before the
// atomic rename, so a restart always has at most one torn candidate and one
// known-good fallback. Restore refuses a file whose trailer is missing,
// whose length disagrees, or whose CRC fails — a truncated or half-written
// checkpoint can then never be mistaken for a short-but-valid one.

// durableTrailerLen is the guard trailer's size.
const durableTrailerLen = 12

// durableMagic marks a trailer-guarded checkpoint file.
var durableMagic = [4]byte{'b', 't', 'c', 'k'}

// PrevSuffix is appended to a checkpoint path to name the rotated
// previous-good copy kept as the torn-write fallback.
const PrevSuffix = ".prev"

// sealDurable appends the guard trailer to a payload, in place when the
// payload's capacity allows.
func sealDurable(payload []byte) []byte {
	n, crc := len(payload), crc32.ChecksumIEEE(payload)
	payload = append(payload, durableMagic[:]...)
	payload = binary.BigEndian.AppendUint32(payload, uint32(n))
	return binary.BigEndian.AppendUint32(payload, crc)
}

// unsealDurable verifies the trailer and returns the payload, or an error
// describing how the file is torn.
func unsealDurable(blob []byte) ([]byte, error) {
	if len(blob) < durableTrailerLen {
		return nil, fmt.Errorf("%d bytes is too short to hold the guard trailer", len(blob))
	}
	t := blob[len(blob)-durableTrailerLen:]
	if !bytes.Equal(t[:4], durableMagic[:]) {
		return nil, errors.New("guard trailer magic missing (torn or pre-trailer file)")
	}
	payload := blob[:len(blob)-durableTrailerLen]
	if n := binary.BigEndian.Uint32(t[4:8]); int(n) != len(payload) {
		return nil, fmt.Errorf("trailer declares %d payload bytes, file holds %d", n, len(payload))
	}
	if want := binary.BigEndian.Uint32(t[8:12]); crc32.ChecksumIEEE(payload) != want {
		return nil, errors.New("payload CRC mismatch")
	}
	return append([]byte(nil), payload...), nil
}

// WriteFileDurable writes payload to path with the torn-write guard
// trailer, via write-to-temp + atomic rename, rotating any existing file to
// path+PrevSuffix first so restore always has a previous-good fallback.
// The caller's payload is left untouched.
func WriteFileDurable(path string, payload []byte) error {
	sealed := make([]byte, 0, len(payload)+durableTrailerLen)
	return writeSealed(path, sealDurable(append(sealed, payload...)))
}

// writeSealed is WriteFileDurable for a payload already sealed with
// sealDurable. The rotation renames the current file without looking for
// it first: a missing one is the first write, with no previous file.
func writeSealed(path string, sealed []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, sealed, 0o644); err != nil {
		return err
	}
	if err := os.Rename(path, path+PrevSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return os.Rename(tmp, path)
}

// ReadFileDurable reads a trailer-guarded file. A torn, truncated or
// corrupt primary falls back to path+PrevSuffix (the last known-good
// write); if neither file exists the error wraps fs.ErrNotExist, so
// callers can distinguish "no checkpoint yet" from "checkpoint destroyed".
func ReadFileDurable(path string) ([]byte, error) {
	blob, err := os.ReadFile(path)
	var primaryErr error
	switch {
	case err == nil:
		payload, uerr := unsealDurable(blob)
		if uerr == nil {
			return payload, nil
		}
		primaryErr = fmt.Errorf("%s: %v", path, uerr)
	case os.IsNotExist(err):
		primaryErr = nil // missing primary alone is not an error yet
	default:
		return nil, err
	}
	prev := path + PrevSuffix
	blob, err = os.ReadFile(prev)
	if err != nil {
		if os.IsNotExist(err) {
			if primaryErr != nil {
				return nil, fmt.Errorf("collector: torn checkpoint with no previous-good fallback: %w", primaryErr)
			}
			return nil, fmt.Errorf("collector: checkpoint %s: %w", path, fs.ErrNotExist)
		}
		return nil, err
	}
	payload, uerr := unsealDurable(blob)
	if uerr != nil {
		if primaryErr != nil {
			return nil, fmt.Errorf("collector: both checkpoint files are torn (%v; %s: %v)", primaryErr, prev, uerr)
		}
		return nil, fmt.Errorf("collector: previous-good checkpoint %s: %v", prev, uerr)
	}
	return payload, nil
}
