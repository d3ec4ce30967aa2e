package collector

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/analysis"
)

// The sink checkpoint payload (PROTOCOL.md §9). Almost all of a live
// keyspace's checkpoint is records — every shard's pending queue and parked
// batches — and the rest is small, so the payload splits the two:
//
//	magic "btsc" (4 B) || version (1 B)
//	uvarint  header length, then the header: the sinkCheckpoint as JSON with
//	         every shard's Reports, Entries and Parked emptied
//	per shard, in header order:
//	  uint32 BE length, then the pending queue as one binary batch payload
//	         (§3; the shard's node and testbed, no watermark, no sequence)
//	  uvarint parked-batch count, then per parked batch, in ascending Seq:
//	  uint32 BE length, then a binary batch payload carrying Seq and Watermark
//
// The records reuse the wire codec, so they cost what they cost on the
// wire instead of ~250 B of JSON each.

// sinkCheckpointMagic opens a binary sink checkpoint payload; the last byte
// is the layout version.
var sinkCheckpointMagic = [5]byte{'b', 't', 's', 'c', 1}

// appendSinkCheckpoint appends cp's binary payload to buf. cp is not
// modified.
func appendSinkCheckpoint(buf []byte, cp *sinkCheckpoint) ([]byte, error) {
	if cp.Streamer == nil {
		return buf, fmt.Errorf("collector: sink checkpoint without streamer state")
	}
	shards := cp.Streamer.Shards
	hdrStreamer := *cp.Streamer
	hdrStreamer.Shards = make([]analysis.ShardCheckpoint, len(shards))
	for i, sh := range shards {
		sh.Reports, sh.Entries, sh.Parked = nil, nil, nil
		hdrStreamer.Shards[i] = sh
	}
	hdr := *cp
	hdr.Streamer = &hdrStreamer
	head, err := json.Marshal(&hdr)
	if err != nil {
		return buf, err
	}
	buf = append(buf, sinkCheckpointMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(head)))
	buf = append(buf, head...)
	for i := range shards {
		sh := &shards[i]
		buf = appendCheckpointBatch(buf, &Batch{Node: sh.Node, Testbed: sh.Testbed,
			Reports: sh.Reports, Entries: sh.Entries})
		buf = binary.AppendUvarint(buf, uint64(len(sh.Parked)))
		for j := range sh.Parked {
			p := &sh.Parked[j]
			buf = appendCheckpointBatch(buf, &Batch{Node: sh.Node, Testbed: sh.Testbed,
				Reports: p.Reports, Entries: p.Entries, Watermark: p.Watermark, Seq: p.Seq})
		}
	}
	return buf, nil
}

// appendCheckpointBatch appends one binary batch payload behind a 4-byte
// big-endian length, encoding in place and backfilling the length.
func appendCheckpointBatch(buf []byte, b *Batch) []byte {
	at := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = appendBinaryBatch(buf, b)
	binary.BigEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf
}

// decodeSinkCheckpoint decodes a checkpoint payload. Any truncated,
// corrupt or inconsistent section is an error.
func decodeSinkCheckpoint(payload []byte) (*sinkCheckpoint, error) {
	var cp sinkCheckpoint
	if !bytes.HasPrefix(payload, sinkCheckpointMagic[:4]) {
		return nil, fmt.Errorf("not a sink checkpoint (unknown payload prefix)")
	}
	if len(payload) < len(sinkCheckpointMagic) || payload[4] != sinkCheckpointMagic[4] {
		return nil, fmt.Errorf("unsupported binary sink checkpoint version")
	}
	r := &binReader{b: payload, off: len(sinkCheckpointMagic)}
	head := r.bytes(r.uvarint("checkpoint header length"), "checkpoint header")
	if r.err != nil {
		return nil, r.err
	}
	if err := json.Unmarshal(head, &cp); err != nil {
		return nil, fmt.Errorf("checkpoint header: %w", err)
	}
	if cp.Streamer == nil {
		return nil, fmt.Errorf("checkpoint header has no streamer state")
	}
	for i := range cp.Streamer.Shards {
		sh := &cp.Streamer.Shards[i]
		if len(sh.Reports) > 0 || len(sh.Entries) > 0 || len(sh.Parked) > 0 {
			return nil, fmt.Errorf("checkpoint header carries records of shard %s/%s", sh.Testbed, sh.Node)
		}
		pending, err := readCheckpointBatch(r, sh, "pending queue")
		if err != nil {
			return nil, err
		}
		if pending.Seq != 0 || pending.Watermark != 0 {
			return nil, fmt.Errorf("pending queue of shard %s/%s carries a sequence or watermark", sh.Testbed, sh.Node)
		}
		sh.Reports, sh.Entries = pending.Reports, pending.Entries
		n := r.uvarint("parked count")
		// Each parked batch takes at least its length prefix.
		if n > uint64(len(r.b)-r.off)/4 {
			return nil, fmt.Errorf("shard %s/%s declares %d parked batches in %d remaining bytes",
				sh.Testbed, sh.Node, n, len(r.b)-r.off)
		}
		for j := uint64(0); j < n; j++ {
			p, err := readCheckpointBatch(r, sh, "parked batch")
			if err != nil {
				return nil, err
			}
			if len(sh.Parked) > 0 && p.Seq <= sh.Parked[len(sh.Parked)-1].Seq {
				return nil, fmt.Errorf("parked batches of shard %s/%s out of sequence order", sh.Testbed, sh.Node)
			}
			sh.Parked = append(sh.Parked, analysis.ParkedCheckpoint{Seq: p.Seq,
				Reports: p.Reports, Entries: p.Entries, Watermark: p.Watermark})
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%d trailing bytes after the last shard", len(r.b)-r.off)
	}
	return &cp, nil
}

// readCheckpointBatch reads one length-prefixed binary batch of shard sh.
func readCheckpointBatch(r *binReader, sh *analysis.ShardCheckpoint, what string) (*Batch, error) {
	n := r.bytes(4, what+" length")
	if r.err != nil {
		return nil, r.err
	}
	blob := r.bytes(uint64(binary.BigEndian.Uint32(n)), what)
	if r.err != nil {
		return nil, r.err
	}
	b, err := decodeBinaryBatch(blob)
	if err != nil {
		return nil, fmt.Errorf("%s of shard %s/%s: %w", what, sh.Testbed, sh.Node, err)
	}
	if b.Node != sh.Node || b.Testbed != sh.Testbed {
		return nil, fmt.Errorf("%s of shard %s/%s is labelled %s/%s", what, sh.Testbed, sh.Node, b.Testbed, b.Node)
	}
	return b, nil
}
