package analysis

import (
	"fmt"
	"sort"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Checkpoint snapshots for the streaming aggregation plane. Two layers:
//
//   - AggregatesSnapshot serializes the folded campaign state (everything
//     behind Table 2/3/4, the figures and the §6 scalars) — what a finished
//     seed of a sweep persists so an interrupted sweep resumes instead of
//     recomputing it;
//   - StreamerCheckpoint serializes a LIVE Streamer mid-campaign: the
//     aggregates plus every shard's pending queue, sequence cursor, parked
//     batches and watermark, and every coalescence relator's in-flight
//     window — what a collection sink persists so a crash resumes from the
//     last checkpoint rather than restarting the campaign.
//
// Both snapshots are exact: restore-and-continue produces bit-identical
// outputs to a never-interrupted run (Go's JSON float encoding round-trips,
// integer counts are integers, and map-free slices keep the bytes
// deterministic). The checkpoint round-trip tests pin this.

// DependAccumSnapshot is the serializable state of a DependAccum.
type DependAccumSnapshot struct {
	TTF      stats.SummarySnapshot `json:"ttf"`
	TTR      stats.SummarySnapshot `json:"ttr"`
	Failures int                   `json:"failures"`
	Masked   int                   `json:"masked"`
	Covered  int                   `json:"covered"`
	PrevFail sim.Time              `json:"prev_fail"`
}

// Snapshot captures the accumulator's exact state.
func (a *DependAccum) Snapshot() DependAccumSnapshot {
	return DependAccumSnapshot{TTF: a.TTF.Snapshot(), TTR: a.TTR.Snapshot(),
		Failures: a.Failures, Masked: a.Masked, Covered: a.Covered, PrevFail: a.prevFail}
}

// RestoreDependAccum rebuilds the accumulator mid-stream.
func RestoreDependAccum(snap DependAccumSnapshot) DependAccum {
	return DependAccum{TTF: stats.RestoreSummary(snap.TTF), TTR: stats.RestoreSummary(snap.TTR),
		Failures: snap.Failures, Masked: snap.Masked, Covered: snap.Covered, prevFail: snap.PrevFail}
}

// Table3Snapshot is the serializable state of a Table3Counts accumulator.
type Table3Snapshot struct {
	Rows   map[core.UserFailure][core.NumRecoveryActions]int `json:"rows,omitempty"`
	Totals [core.NumRecoveryActions]int                      `json:"totals"`
	Grand  int                                               `json:"grand"`
}

// Snapshot captures the recovery-success counts.
func (c *Table3Counts) Snapshot() Table3Snapshot {
	snap := Table3Snapshot{Rows: make(map[core.UserFailure][core.NumRecoveryActions]int, len(c.Rows)),
		Totals: c.Totals, Grand: c.Grand}
	for f, row := range c.Rows {
		snap.Rows[f] = row
	}
	return snap
}

// RestoreTable3Counts rebuilds the accumulator.
func RestoreTable3Counts(snap Table3Snapshot) *Table3Counts {
	c := NewTable3Counts()
	for f, row := range snap.Rows {
		c.Rows[f] = row
	}
	c.Totals, c.Grand = snap.Totals, snap.Grand
	return c
}

// DistanceCount is one antenna-distance failure count of a ScalarSnapshot
// (JSON objects cannot key on float64, so the map ships as sorted pairs).
type DistanceCount struct {
	Meters float64 `json:"meters"`
	Count  int     `json:"count"`
}

// ScalarSnapshot is the serializable state of a ScalarCounts accumulator.
type ScalarSnapshot struct {
	NRandom    int             `json:"n_random"`
	NRealistic int             `json:"n_realistic"`
	Distances  []DistanceCount `json:"distances,omitempty"`
	DistTotal  int             `json:"dist_total"`
}

// Snapshot captures the scalar counts, distances sorted ascending.
func (c *ScalarCounts) Snapshot() ScalarSnapshot {
	snap := ScalarSnapshot{NRandom: c.NRandom, NRealistic: c.NRealistic, DistTotal: c.DistTotal}
	for d, n := range c.DistCount {
		snap.Distances = append(snap.Distances, DistanceCount{Meters: d, Count: n})
	}
	sort.Slice(snap.Distances, func(i, j int) bool { return snap.Distances[i].Meters < snap.Distances[j].Meters })
	return snap
}

// RestoreScalarCounts rebuilds the accumulator.
func RestoreScalarCounts(snap ScalarSnapshot) *ScalarCounts {
	c := NewScalarCounts()
	c.NRandom, c.NRealistic, c.DistTotal = snap.NRandom, snap.NRealistic, snap.DistTotal
	for _, d := range snap.Distances {
		c.DistCount[d.Meters] = d.Count
	}
	return c
}

// AggregatesSnapshot is the serializable state of campaign Aggregates.
type AggregatesSnapshot struct {
	Window sim.Time `json:"window"`
	Radius sim.Time `json:"radius"`

	Evidence *coalesce.EvidenceSnapshot          `json:"evidence"`
	Depend   DependAccumSnapshot                 `json:"depend"`
	T3       Table3Snapshot                      `json:"t3"`
	AppLoss  map[core.AppKind]float64            `json:"app_loss,omitempty"`
	PerHost  map[string]map[core.UserFailure]int `json:"per_host,omitempty"`
	ConnAge  stats.HistogramSnapshot             `json:"conn_age"`
	Scalar   ScalarSnapshot                      `json:"scalar"`

	// Tax/Surv carry the taxonomy/survival plane (PR 10). Nil on
	// checkpoints written by older builds; restore then keeps the
	// receiver's (empty but roster-registered) accumulators.
	Tax  *TaxonomyAccum    `json:"tax,omitempty"`
	Surv *SurvivalSnapshot `json:"surv,omitempty"`

	Reports        int `json:"reports"`
	Entries        int `json:"entries"`
	SeqGaps        int `json:"seq_gaps"`
	DroppedRecords int `json:"dropped_records"`
}

// Snapshot captures the aggregates' exact state. The caller must ensure no
// concurrent folding (the Streamer checkpoints under its fold lock;
// finalized aggregates are quiescent by definition).
func (a *Aggregates) Snapshot() *AggregatesSnapshot {
	snap := &AggregatesSnapshot{
		Window:   a.Window,
		Radius:   a.Radius,
		Evidence: a.Evidence.Snapshot(),
		Depend:   a.Depend.Snapshot(),
		T3:       a.T3.Snapshot(),
		AppLoss:  make(map[core.AppKind]float64, len(a.AppLoss)),
		PerHost:  make(map[string]map[core.UserFailure]int, len(a.PerHost)),
		ConnAge:  a.ConnAge.Snapshot(),
		Scalar:   a.ScalarC.Snapshot(),
		Tax:      a.Tax.Clone(),
		Surv:     a.Surv.Snapshot(),
		Reports:  a.Reports, Entries: a.Entries,
		SeqGaps: a.SeqGaps, DroppedRecords: a.DroppedRecords,
	}
	for app, n := range a.AppLoss {
		snap.AppLoss[app] = n
	}
	for node, counts := range a.PerHost {
		m := make(map[core.UserFailure]int, len(counts))
		for f, n := range counts {
			m[f] = n
		}
		snap.PerHost[node] = m
	}
	return snap
}

// restoreInto loads the snapshot into a, replacing its contents in place so
// that relators already wired to a.Evidence keep accumulating into the
// restored state.
func (snap *AggregatesSnapshot) restoreInto(a *Aggregates) error {
	if snap.Evidence == nil {
		return fmt.Errorf("analysis: aggregates snapshot missing evidence")
	}
	a.Window, a.Radius = snap.Window, snap.Radius
	if err := snap.Evidence.RestoreInto(a.Evidence); err != nil {
		return err
	}
	a.Depend = RestoreDependAccum(snap.Depend)
	a.T3 = RestoreTable3Counts(snap.T3)
	a.AppLoss = make(map[core.AppKind]float64, len(snap.AppLoss))
	for app, n := range snap.AppLoss {
		a.AppLoss[app] = n
	}
	a.PerHost = make(map[string]map[core.UserFailure]int, len(snap.PerHost))
	for node, counts := range snap.PerHost {
		m := make(map[core.UserFailure]int, len(counts))
		for f, n := range counts {
			m[f] = n
		}
		a.PerHost[node] = m
	}
	h, err := stats.RestoreHistogram(snap.ConnAge)
	if err != nil {
		return err
	}
	a.ConnAge = h
	a.ScalarC = RestoreScalarCounts(snap.Scalar)
	if snap.Tax != nil {
		a.Tax = snap.Tax.Clone()
	}
	if snap.Surv != nil {
		surv, err := RestoreSurvivalAccum(snap.Surv)
		if err != nil {
			return err
		}
		a.Surv = surv
	}
	a.Reports, a.Entries = snap.Reports, snap.Entries
	a.SeqGaps, a.DroppedRecords = snap.SeqGaps, snap.DroppedRecords
	return nil
}

// RestoreAggregates rebuilds standalone (finalized) aggregates from a
// snapshot — the sweep-resume path, where each completed seed's folded state
// is reloaded instead of recomputed.
func RestoreAggregates(snap *AggregatesSnapshot) (*Aggregates, error) {
	a := newAggregates(snap.Window, snap.Radius)
	if err := snap.restoreInto(a); err != nil {
		return nil, err
	}
	return a, nil
}

// ParkedCheckpoint is one reorder-parked batch of a ShardCheckpoint.
type ParkedCheckpoint struct {
	Seq       uint64             `json:"seq"`
	Reports   []core.UserReport  `json:"reports,omitempty"`
	Entries   []core.SystemEntry `json:"entries,omitempty"`
	Watermark sim.Time           `json:"watermark"`
}

// ShardCheckpoint is one stream's live state inside a StreamerCheckpoint.
type ShardCheckpoint struct {
	Testbed string `json:"testbed"`
	Node    string `json:"node"`

	Reports   []core.UserReport  `json:"reports,omitempty"`
	Entries   []core.SystemEntry `json:"entries,omitempty"`
	Stolen    sim.Time           `json:"stolen"`
	NextSeq   uint64             `json:"next_seq"`
	Parked    []ParkedCheckpoint `json:"parked,omitempty"`
	Watermark sim.Time           `json:"watermark"`
}

// RelatorCheckpoint is one PANU relator's in-flight window inside a
// StreamerCheckpoint.
type RelatorCheckpoint struct {
	Testbed string                    `json:"testbed"`
	Node    string                    `json:"node"`
	State   *coalesce.RelatorSnapshot `json:"state"`
}

// StreamerCheckpoint is the full serializable state of a live Streamer: the
// folded aggregates plus everything still in flight. A sink writes one
// atomically every few batches; restoring it (RestoreStreamer) and replaying
// each stream from NextSeq onward reproduces the uninterrupted campaign
// digit-for-digit.
type StreamerCheckpoint struct {
	Folded   sim.Time            `json:"folded"`
	Agg      *AggregatesSnapshot `json:"agg"`
	Shards   []ShardCheckpoint   `json:"shards"`
	Relators []RelatorCheckpoint `json:"relators"`
	// Trace is the fold-ordered unmasked-failure trace (only present when
	// the spec enabled TraceDepend — i.e. the streamer covers a shard of a
	// larger campaign and its partial will go through MergeAggregates).
	Trace []DependEvent `json:"trace,omitempty"`
}

// AggSnapshot captures just the folded aggregates of a (possibly live)
// streamer, consistently with any concurrent folding — the cheap snapshot
// behind mid-campaign observability (live Table 2/3/4 over HTTP), as
// opposed to the full CheckpointView a sink persists for crash recovery.
func (s *Streamer) AggSnapshot() *AggregatesSnapshot {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	return s.agg.Snapshot()
}

// CheckpointView calls fn with the streamer's full live state, without
// copying its record queues. fn runs while the view holds the fold lock and
// every shard lock, so ingest and folding wait for it and the state it sees
// is one consistent cut: every NextSeq matches its shard's pending queue
// and parked batches exactly.
//
// Aliasing contract: each shard's Reports and Entries, each parked batch's
// Reports and Entries, and Trace are the live slices themselves. fn must
// not modify them and must not keep them past its return; encode or copy
// inside fn. Everything else in the view (the aggregate and relator
// snapshots, the Shards and Parked slices and their scalar fields) is
// built for this call and stays fn's. Keep fn short and free of I/O: a
// live-table read (AggSnapshot) waits on the fold lock for as long as fn
// runs.
//
// Viewing a finalized streamer is an error — there is nothing left in
// flight; snapshot the finalized Aggregates instead.
func (s *Streamer) CheckpointView(fn func(*StreamerCheckpoint) error) error {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	if s.finalized {
		return fmt.Errorf("analysis: checkpoint of a finalized streamer")
	}
	// Lock order: foldMu, then the shards in declaration order. No other
	// path holds a shard lock while taking foldMu or a second shard lock.
	for _, sh := range s.all {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.all {
			sh.mu.Unlock()
		}
	}()
	cp := &StreamerCheckpoint{Folded: sim.Time(s.folded.Load()), Agg: s.agg.Snapshot(), Trace: s.trace,
		Shards: make([]ShardCheckpoint, len(s.all))}
	for i, sh := range s.all {
		sc := &cp.Shards[i]
		*sc = ShardCheckpoint{
			Testbed:   sh.key.testbed,
			Node:      sh.key.node,
			Reports:   sh.reports,
			Entries:   sh.entries,
			Stolen:    sh.stolen,
			NextSeq:   sh.nextSeq,
			Watermark: sim.Time(sh.watermark.Load()),
		}
		if len(sh.parked) == 0 {
			continue
		}
		sc.Parked = make([]ParkedCheckpoint, 0, len(sh.parked))
		for q, p := range sh.parked {
			sc.Parked = append(sc.Parked, ParkedCheckpoint{Seq: q,
				Reports: p.reports, Entries: p.entries, Watermark: p.watermark})
		}
		sort.Slice(sc.Parked, func(i, j int) bool { return sc.Parked[i].Seq < sc.Parked[j].Seq })
	}
	for rank, keys := range s.panuKeys {
		for _, key := range keys {
			cp.Relators = append(cp.Relators, RelatorCheckpoint{
				Testbed: s.spec.Testbeds[rank].Name, Node: key.node,
				State: s.relators[key].Snapshot()})
		}
	}
	return fn(cp)
}

// RestoreStreamer rebuilds a live Streamer from a checkpoint. The spec must
// be the same one the checkpointed streamer was built with (stream
// membership is validated; window/radius come from the snapshot). Senders
// then resume each stream from its shard's NextSeq.
func RestoreStreamer(spec StreamSpec, cp *StreamerCheckpoint) (*Streamer, error) {
	if cp == nil || cp.Agg == nil {
		return nil, fmt.Errorf("analysis: empty streamer checkpoint")
	}
	spec.Window, spec.Radius = cp.Agg.Window, cp.Agg.Radius
	s, err := NewStreamer(spec)
	if err != nil {
		return nil, err
	}
	if err := cp.Agg.restoreInto(s.agg); err != nil {
		return nil, err
	}
	if len(cp.Shards) != len(s.all) {
		return nil, fmt.Errorf("analysis: checkpoint has %d shards, spec declares %d",
			len(cp.Shards), len(s.all))
	}
	for i := range cp.Shards {
		sc := &cp.Shards[i]
		sh, ok := s.shards[shardKey{sc.Testbed, sc.Node}]
		if !ok {
			return nil, fmt.Errorf("analysis: checkpoint shard %s/%s not in spec", sc.Testbed, sc.Node)
		}
		if sc.NextSeq == 0 {
			return nil, fmt.Errorf("analysis: checkpoint shard %s/%s has zero sequence cursor",
				sc.Testbed, sc.Node)
		}
		sh.reports = append([]core.UserReport(nil), sc.Reports...)
		sh.entries = append([]core.SystemEntry(nil), sc.Entries...)
		sh.stolen = sc.Stolen
		sh.nextSeq = sc.NextSeq
		for _, p := range sc.Parked {
			if sh.parked == nil {
				sh.parked = make(map[uint64]parkedBatch)
			}
			sh.parked[p.Seq] = parkedBatch{reports: p.Reports, entries: p.Entries, watermark: p.Watermark}
		}
		sh.watermark.Store(int64(sc.Watermark))
	}
	restored := make(map[shardKey]bool, len(cp.Relators))
	for _, rc := range cp.Relators {
		key := shardKey{rc.Testbed, rc.Node}
		rank := -1
		for r, tb := range spec.Testbeds {
			if tb.Name == rc.Testbed {
				rank = r
			}
		}
		if rank < 0 || s.relators[key] == nil || rc.State == nil {
			return nil, fmt.Errorf("analysis: checkpoint relator %s/%s not in spec", rc.Testbed, rc.Node)
		}
		s.relators[key] = coalesce.RestoreStreamRelator(s.agg.Evidence, spec.Testbeds[rank].NAP,
			s.agg.Window, s.agg.Radius, rc.State)
		restored[key] = true
	}
	if len(restored) != len(s.relators) {
		return nil, fmt.Errorf("analysis: checkpoint restores %d relators, spec declares %d",
			len(restored), len(s.relators))
	}
	if cp.Trace != nil {
		s.trace = append([]DependEvent(nil), cp.Trace...)
	}
	s.folded.Store(int64(cp.Folded))
	return s, nil
}
