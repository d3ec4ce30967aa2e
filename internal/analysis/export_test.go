package analysis

import "repro/internal/core"

// AppliedSeq reports the checkpoint's contiguous applied sequence number for
// one stream (0 when the stream has no checkpointed batches). This — not the
// live Streamer's cursor — is what a checkpointing sink may acknowledge:
// batches applied after the snapshot are not yet durable.
func (cp *StreamerCheckpoint) AppliedSeq(testbed, node string) uint64 {
	for i := range cp.Shards {
		if cp.Shards[i].Testbed == testbed && cp.Shards[i].Node == node {
			return cp.Shards[i].NextSeq - 1
		}
	}
	return 0
}

// AddProbe records one routed probe: a relay over depth bridges that took
// delaySeconds end to end.
func (a *RelayDepthAccum) AddProbe(depth int, delaySeconds float64) {
	a.Depth(depth).Add(delaySeconds)
}

// MeanSeverity reports the mean severity (ordinal of the clearing SIRA)
// for a failure type.
func (t *Table3) MeanSeverity(f core.UserFailure) float64 {
	row := t.Rows[f]
	mean := 0.0
	for i, pct := range row {
		mean += float64(i+1) * pct / 100
	}
	return mean
}

// retainedRecordCap sums the record capacity the streamer holds: its fold
// scratch and every shard's report and entry queues.
func (s *Streamer) retainedRecordCap() int {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	n := cap(s.scratch)
	for _, sh := range s.all {
		sh.mu.Lock()
		n += cap(sh.reports) + cap(sh.entries)
		sh.mu.Unlock()
	}
	return n
}
