package analysis

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The streaming aggregation plane: instead of retaining every UserReport and
// SystemEntry of a campaign (which makes month-scale runs RAM-bound), a
// Streamer folds records into exactly the running aggregates the paper's
// outputs consume — the coalescence Evidence behind Table 2, the SIRA counts
// behind Table 3, the TTF/TTR summaries behind Table 4 and §6, and the
// figure count maps/histograms. All of that state is O(1) in campaign
// duration.
//
// Correctness hinges on ordering: the TTF/TTR Welford accumulation and the
// per-PANU coalescence are order-sensitive, and records arrive on
// independent shards (one per node, either from an in-process testbed drain
// or from a sink's agent sessions). Each shard carries a watermark ("all
// of this node's data up to virtual time W has been delivered"); whenever
// the minimum watermark over all shards advances, the events below it are
// globally sorted by (time, testbed rank, node) — the exact tie order of the
// retained pipeline — and folded. Pending-event memory is bounded by the
// flush cadence, not the campaign length.

// TestbedSpec names one testbed's streams.
type TestbedSpec struct {
	Name string
	// Kind classifies the workload for the §6 scalars and Figure 3c.
	Kind core.WorkloadKind
	// NAP is the access point (its system entries count as NAP-side
	// evidence for every PANU of the testbed).
	NAP string
	// PANUs are the client nodes (each gets a streaming coalescer).
	PANUs []string
}

// Nodes returns the testbed's roster: its PANUs in order, then its NAP.
func (tb TestbedSpec) Nodes() []string {
	return append(append([]string(nil), tb.PANUs...), tb.NAP)
}

// StreamSpec configures a Streamer. Testbed order is significant: it is the
// tie-break rank of the fold order, matching the retained pipeline's
// "random block before realistic block" convention.
type StreamSpec struct {
	Testbeds []TestbedSpec
	// Window / Radius parameterize the evidence extraction (defaults:
	// coalesce.PaperWindow / coalesce.RelateRadius).
	Window, Radius sim.Time
	// TraceDepend records every unmasked failure folded into the Table 4
	// accumulator as a DependEvent (in fold order). A streamer that covers
	// only a subset of a campaign's testbeds — one shard of a horizontally
	// sharded sink — MUST enable this, because the TTF gaps of DependAccum
	// are computed over the campaign-global interleaved failure sequence:
	// MergeAggregates needs the shards' traces to re-run the accumulator
	// over the merged order. Full-campaign streamers can leave it off.
	TraceDepend bool
}

// shardKey identifies one stream: node names repeat across testbeds, so the
// key is the pair.
type shardKey struct{ testbed, node string }

// shard is one node's pending queue. Ingest appends under the shard's own
// lock, so concurrent connections never contend on a global lock; the fold
// path steals the pending prefix below the watermark.
type shard struct {
	key  shardKey
	rank int

	mu      sync.Mutex
	reports []core.UserReport
	entries []core.SystemEntry
	// stolen is the exclusive bound of the last fold that drained this
	// shard (guarded by mu): records below it can no longer be merged in
	// order, so a late ingest of one is rejected.
	stolen sim.Time
	// nextSeq is the next sender sequence number to apply; batches ahead
	// of it park in parked until the gap fills (guarded by mu).
	nextSeq uint64
	parked  map[uint64]parkedBatch
	// closed marks the shard finalized: further ingests are doomed (the
	// final fold has run) and must fail loudly (guarded by mu).
	closed bool
	// watermark is atomic so the fold trigger can scan all shards without
	// taking every lock; writes happen under mu.
	watermark atomic.Int64
}

// parkedBatch is a sequenced batch waiting for its predecessors.
type parkedBatch struct {
	reports   []core.UserReport
	entries   []core.SystemEntry
	watermark sim.Time
}

// maxParkedBatches bounds the per-shard reorder buffer: a sender that runs
// this far ahead of a missing sequence number has lost a batch for good.
const maxParkedBatches = 1024

// foldEvent is one record en route to the aggregates, tagged with its fold
// sort key.
type foldEvent struct {
	at   sim.Time
	rank int
	node string
	user bool
	r    core.UserReport
	e    core.SystemEntry
}

// Aggregates is the folded state of a campaign: everything the paper's
// tables, figures and scalars need, and nothing per-record.
type Aggregates struct {
	Window, Radius sim.Time

	// Evidence backs Table 2.
	Evidence *coalesce.Evidence
	// Depend backs the campaign's Table 4 column.
	Depend DependAccum
	// T3 backs Table 3.
	T3 *Table3Counts
	// AppLoss backs Figure 3c (realistic testbeds only).
	AppLoss map[core.AppKind]float64
	// PerHost backs Figure 4.
	PerHost map[string]map[core.UserFailure]int
	// ConnAge histograms packet losses by packets sent before the loss
	// (Figure 3b's view, at its paper binning: 10 bins of 1000 packets).
	ConnAge *stats.Histogram
	// ScalarC backs the §6 scalars.
	ScalarC *ScalarCounts

	// Tax splits failures by protocol phase and transience verdict; Surv
	// runs the Kaplan-Meier / interarrival survival estimators. Both are
	// always accumulated (rendering is what CLI flags gate), so every
	// plane can be equivalence-checked on them.
	Tax  *TaxonomyAccum
	Surv *SurvivalAccum

	// Reports / Entries count every ingested record (the DataItems view,
	// masked reports included).
	Reports, Entries int

	// SeqGaps counts streams that ended with an unfilled sequence gap (a
	// sender's batch was lost in transit; later batches were recovered
	// best-effort at Finalize). DroppedRecords counts records that could
	// not be merged at all. Both zero on a healthy campaign — consumers
	// doing science on the tables should check.
	SeqGaps        int
	DroppedRecords int
}

// newAggregates allocates the folded state.
func newAggregates(window, radius sim.Time) *Aggregates {
	return &Aggregates{
		Window:   window,
		Radius:   radius,
		Evidence: coalesce.NewEvidence(),
		T3:       NewTable3Counts(),
		AppLoss:  make(map[core.AppKind]float64),
		PerHost:  make(map[string]map[core.UserFailure]int),
		ConnAge:  stats.NewHistogram(0, 10000, 10),
		ScalarC:  NewScalarCounts(),
		Tax:      NewTaxonomyAccum(),
		Surv:     NewSurvivalAccum(),
	}
}

// Taxonomy exposes the phase/verdict accumulator.
func (a *Aggregates) Taxonomy() *TaxonomyAccum { return a.Tax }

// Survival exposes the survival accumulator.
func (a *Aggregates) Survival() *SurvivalAccum { return a.Surv }

// Table2 renders the error-failure relationship table from the streamed
// evidence.
func (a *Aggregates) Table2() *Table2 { return BuildTable2(a.Evidence) }

// Table3 renders the SIRA effectiveness table.
func (a *Aggregates) Table3() *Table3 { return a.T3.Table() }

// Dependability renders the campaign's Table 4 column.
func (a *Aggregates) Dependability(scenario string) *Dependability {
	return a.Depend.Column(scenario)
}

// Fig3c renders the loss-by-application bars.
func (a *Aggregates) Fig3c() []Bar { return Fig3cFromCounts(a.AppLoss) }

// Fig4 renders the per-host failure distribution.
func (a *Aggregates) Fig4() []Fig4Row { return Fig4FromCounts(a.PerHost) }

// Fig3bBars renders the connection-age histogram at its accumulation
// binning. No report prints it (Figure 3b comes from the fixed-workload
// experiment); the cross-plane suites compare it.
//
// Test seam: TestStreamingEquivalence and TestAggregatesSnapshotRoundTrip.
func (a *Aggregates) Fig3bBars() []Bar {
	shares := a.ConnAge.Shares()
	bars := make([]Bar, len(shares))
	for i := range bars {
		bars[i] = Bar{Label: a.ConnAge.BinLabel(i), Share: shares[i]}
	}
	return bars
}

// Scalars renders the §6 scalar findings; counters supply the idle-time
// summaries exactly as in the retained path.
func (a *Aggregates) Scalars(counters map[string]*workload.Counters) *Scalars {
	return a.ScalarC.Scalars(counters, a.Entries)
}

// DataItems reports the dataset sizes (user reports, system entries, total).
func (a *Aggregates) DataItems() (userReports, systemEntries, total int) {
	return a.Reports, a.Entries, a.Reports + a.Entries
}

// Streamer folds per-node record streams into campaign Aggregates.
type Streamer struct {
	spec   StreamSpec
	kinds  []core.WorkloadKind
	naps   []string
	shards map[shardKey]*shard
	all    []*shard

	foldMu    sync.Mutex
	folded    atomic.Int64 // events strictly below this time have been folded
	relators  map[shardKey]*coalesce.StreamRelator
	panuKeys  [][]shardKey // per testbed rank, PANU relator keys in order
	agg       *Aggregates
	trace     []DependEvent // fold-ordered unmasked failures (TraceDepend)
	scratch   []foldEvent
	finalized bool
}

// NewStreamer builds the aggregator for the given streams. Every node that
// will ever ingest must be declared up front: the fold watermark is the
// minimum over all declared shards, so a late-registered stream could not be
// merged in order retroactively.
func NewStreamer(spec StreamSpec) (*Streamer, error) {
	if len(spec.Testbeds) == 0 {
		return nil, fmt.Errorf("analysis: streamer needs at least one testbed")
	}
	if spec.Window == 0 {
		spec.Window = coalesce.PaperWindow
	}
	if spec.Radius == 0 {
		spec.Radius = coalesce.RelateRadius
	}
	if spec.Window <= 0 || spec.Radius <= 0 || spec.Radius > spec.Window {
		return nil, fmt.Errorf("analysis: streaming needs 0 < radius <= window, got radius %v window %v",
			spec.Radius, spec.Window)
	}
	s := &Streamer{
		spec:     spec,
		shards:   make(map[shardKey]*shard),
		relators: make(map[shardKey]*coalesce.StreamRelator),
		agg:      newAggregates(spec.Window, spec.Radius),
	}
	for rank, tb := range spec.Testbeds {
		if tb.Name == "" || tb.NAP == "" || len(tb.PANUs) == 0 {
			return nil, fmt.Errorf("analysis: testbed spec %d incomplete: %+v", rank, tb)
		}
		s.kinds = append(s.kinds, tb.Kind)
		s.naps = append(s.naps, tb.NAP)
		var keys []shardKey
		for _, node := range tb.Nodes() {
			key := shardKey{tb.Name, node}
			if _, dup := s.shards[key]; dup {
				return nil, fmt.Errorf("analysis: duplicate stream %s/%s", tb.Name, node)
			}
			sh := &shard{key: key, rank: rank, nextSeq: 1}
			s.shards[key] = sh
			s.all = append(s.all, sh)
			if node != tb.NAP {
				s.relators[key] = coalesce.NewStreamRelator(s.agg.Evidence, tb.NAP,
					spec.Window, spec.Radius)
				keys = append(keys, key)
				s.agg.Tax.Nodes++
				s.agg.Surv.Observe(tb.Name, node)
			}
		}
		s.panuKeys = append(s.panuKeys, keys)
	}
	return s, nil
}

// Ingest appends one node's next records (each slice time-ordered, as logs
// are) and advances the node's watermark: the promise that everything from
// this node up to that virtual time has now been delivered. Folding happens
// opportunistically once every declared shard's watermark has passed the
// current fold point. Ingest trusts the caller to deliver batches in send
// order (the in-process testbed drain does); transports that can reorder or
// repeat batches must use OfferSeq.
func (s *Streamer) Ingest(testbed, node string, reports []core.UserReport,
	entries []core.SystemEntry, watermark sim.Time) error {
	_, err := s.OfferSeq(testbed, node, reports, entries, watermark, 0)
	return err
}

// OfferSeq is Ingest for sequenced, at-least-once transports: batches carry
// the sender's 1-based sequence number and are applied strictly in that
// order, parking early arrivals until the gap fills. A batch whose sequence
// number was already applied or is already parked is a duplicate — the
// normal consequence of retransmitting after a lost acknowledgement — and is
// ignored rather than treated as a peer error. It reports whether the batch
// was accepted (applied or parked); a duplicate returns (false, nil). seq 0
// bypasses sequencing.
func (s *Streamer) OfferSeq(testbed, node string, reports []core.UserReport,
	entries []core.SystemEntry, watermark sim.Time, seq uint64) (bool, error) {
	sh, ok := s.shards[shardKey{testbed, node}]
	if !ok {
		return false, fmt.Errorf("analysis: ingest for undeclared stream %s/%s", testbed, node)
	}
	sh.mu.Lock()
	accepted := true
	var err error
	switch {
	case sh.closed:
		accepted = false
		err = fmt.Errorf("analysis: stream %s/%s ingested after finalize", testbed, node)
	case seq == 0:
		err = s.applyLocked(sh, reports, entries, watermark)
	case seq < sh.nextSeq:
		accepted = false
	case seq > sh.nextSeq:
		if len(sh.parked) >= maxParkedBatches {
			accepted = false
			err = fmt.Errorf("analysis: stream %s/%s ran %d batches ahead of missing seq %d",
				testbed, node, len(sh.parked), sh.nextSeq)
			break
		}
		if sh.parked == nil {
			sh.parked = make(map[uint64]parkedBatch)
		}
		if _, dup := sh.parked[seq]; dup {
			accepted = false
			break
		}
		sh.parked[seq] = parkedBatch{reports: reports, entries: entries, watermark: watermark}
	default: // seq == sh.nextSeq
		err = s.applyLocked(sh, reports, entries, watermark)
		for err == nil {
			sh.nextSeq++
			p, ok := sh.parked[sh.nextSeq]
			if !ok {
				break
			}
			delete(sh.parked, sh.nextSeq)
			err = s.applyLocked(sh, p.reports, p.entries, p.watermark)
		}
	}
	sh.mu.Unlock()
	if err != nil {
		return false, err
	}
	if accepted {
		s.maybeFold()
	}
	return accepted, nil
}

// Cursor reports one stream's contiguous applied sequence number (0 before
// the first sequenced batch) and current watermark — the state transport
// acknowledgements and resume handshakes are built from.
func (s *Streamer) Cursor(testbed, node string) (seq uint64, watermark sim.Time, err error) {
	sh, ok := s.shards[shardKey{testbed, node}]
	if !ok {
		return 0, 0, fmt.Errorf("analysis: cursor for undeclared stream %s/%s", testbed, node)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.nextSeq - 1, sim.Time(sh.watermark.Load()), nil
}

// applyLocked merges one in-order batch into the shard. Caller holds sh.mu.
//
// Within the seq-0 trust model batches may still arrive slightly shuffled
// in time (distinct sources behind one stream): reordering above the fold
// horizon is repaired by re-sorting the pending queue, while records at or
// below an already-folded instant are unmergeable (their fold slot is gone)
// and rejected as an error, which the sink counts as a rejected frame.
func (s *Streamer) applyLocked(sh *shard, reports []core.UserReport,
	entries []core.SystemEntry, watermark sim.Time) error {
	minAt, sortedBatch := sim.Never, true
	for i := range reports {
		if reports[i].At < minAt {
			minAt = reports[i].At
		}
		if i > 0 && reports[i].At < reports[i-1].At {
			sortedBatch = false
		}
	}
	for i := range entries {
		if entries[i].At < minAt {
			minAt = entries[i].At
		}
		if i > 0 && entries[i].At < entries[i-1].At {
			sortedBatch = false
		}
	}
	// The stolen bound is updated under this same lock by the fold's
	// prefix steal, so the check cannot race with a concurrent fold.
	if minAt < sh.stolen {
		return fmt.Errorf("analysis: stream %s/%s delivered records below the fold horizon %v",
			sh.key.testbed, sh.key.node, sh.stolen)
	}
	resort := !sortedBatch
	if n := len(sh.reports); n > 0 && len(reports) > 0 && reports[0].At < sh.reports[n-1].At {
		resort = true
	}
	if n := len(sh.entries); n > 0 && len(entries) > 0 && entries[0].At < sh.entries[n-1].At {
		resort = true
	}
	sh.reports = append(sh.reports, reports...)
	sh.entries = append(sh.entries, entries...)
	if resort {
		sort.SliceStable(sh.reports, func(i, j int) bool { return sh.reports[i].At < sh.reports[j].At })
		sort.SliceStable(sh.entries, func(i, j int) bool { return sh.entries[i].At < sh.entries[j].At })
	}
	if watermark > sim.Time(sh.watermark.Load()) {
		sh.watermark.Store(int64(watermark))
	}
	return nil
}

// minWatermark reports the fold horizon.
func (s *Streamer) minWatermark() sim.Time {
	min := sim.Never
	for _, sh := range s.all {
		if w := sim.Time(sh.watermark.Load()); w < min {
			min = w
		}
	}
	return min
}

// maybeFold folds up to the current minimum watermark if it advanced.
func (s *Streamer) maybeFold() {
	if s.minWatermark() <= sim.Time(s.folded.Load()) { // lock-free fast path
		return
	}
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	if w := s.minWatermark(); w > sim.Time(s.folded.Load()) && !s.finalized {
		s.fold(w)
		s.folded.Store(int64(w))
	}
}

// fold merges every pending event strictly below upTo into the aggregates,
// in the retained pipeline's exact order. The bound is exclusive because a
// node that flushed at virtual instant T may still log more records AT T
// within the same instant; they join the fold once the node's watermark
// passes T, alongside any same-instant peers. Caller holds foldMu.
func (s *Streamer) fold(upTo sim.Time) {
	evs := s.scratch[:0]
	for _, sh := range s.all {
		sh.mu.Lock()
		if upTo > sh.stolen {
			sh.stolen = upTo
		}
		nr := 0
		for nr < len(sh.reports) && sh.reports[nr].At < upTo {
			nr++
		}
		for i := 0; i < nr; i++ {
			evs = append(evs, foldEvent{at: sh.reports[i].At, rank: sh.rank,
				node: sh.key.node, user: true, r: sh.reports[i]})
		}
		if nr > 0 {
			sh.reports = sh.reports[:copy(sh.reports, sh.reports[nr:])]
		}
		ne := 0
		for ne < len(sh.entries) && sh.entries[ne].At < upTo {
			ne++
		}
		for i := 0; i < ne; i++ {
			evs = append(evs, foldEvent{at: sh.entries[i].At, rank: sh.rank,
				node: sh.key.node, e: sh.entries[i]})
		}
		if ne > 0 {
			sh.entries = sh.entries[:copy(sh.entries, sh.entries[ne:])]
		}
		sh.mu.Unlock()
	}
	// (time, testbed rank, node), stable: within one shard the gather order
	// was reports-then-entries, reproducing the retained merge's tie order
	// (a node's report sorts before its same-instant entry, the random
	// block before the realistic block).
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		if evs[i].rank != evs[j].rank {
			return evs[i].rank < evs[j].rank
		}
		return evs[i].node < evs[j].node
	})
	for i := range evs {
		s.apply(&evs[i])
	}
	s.scratch = evs[:0]
}

// apply folds one event.
func (s *Streamer) apply(ev *foldEvent) {
	if ev.user {
		r := &ev.r
		s.agg.Reports++
		if s.spec.TraceDepend && !r.Masked {
			s.trace = append(s.trace, DependEvent{
				At: ev.at, Testbed: s.spec.Testbeds[ev.rank].Name, Node: ev.node,
				Recovered: r.Recovered, TTR: r.TTR, Recovery: r.Recovery})
		}
		s.agg.Depend.Add(r)
		s.agg.T3.Add(r)
		if !taxonomyDisabled.Load() {
			s.agg.Tax.Add(r)
			s.agg.Surv.Add(s.spec.Testbeds[ev.rank].Name, ev.node, r)
		}
		AddFig4(s.agg.PerHost, r)
		s.agg.ScalarC.Add(r, s.kinds[ev.rank])
		if s.kinds[ev.rank] == core.WLRealistic {
			AddFig3c(s.agg.AppLoss, r)
		}
		if !r.Masked && r.Failure == core.UFPacketLoss {
			s.agg.ConnAge.Add(float64(r.SentPkts))
		}
		if !r.Masked {
			if rel := s.relators[shardKey{s.spec.Testbeds[ev.rank].Name, ev.node}]; rel != nil {
				rel.AddUser(ev.at, r.Failure)
			}
		}
		return
	}
	s.agg.Entries++
	if ev.node == s.naps[ev.rank] {
		// NAP entries are merged into every PANU stream of the testbed.
		for _, key := range s.panuKeys[ev.rank] {
			s.relators[key].AddSys(ev.at, ev.node, ev.e.Source)
		}
		return
	}
	if rel := s.relators[shardKey{s.spec.Testbeds[ev.rank].Name, ev.node}]; rel != nil {
		rel.AddSys(ev.at, ev.node, ev.e.Source)
	}
}

// DependTrace returns a copy of the fold-ordered unmasked-failure trace
// accumulated so far (nil unless the spec enabled TraceDepend). After
// Finalize the trace is complete; a sharded sink ships it inside its
// Partial so the merge tier can reconstruct the campaign-global failure
// order (see MergeAggregates).
func (s *Streamer) DependTrace() []DependEvent {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	if s.trace == nil {
		return nil
	}
	return append([]DependEvent(nil), s.trace...)
}

// Pending reports how many records are buffered awaiting watermark advance
// or a sequence gap (a liveness/memory probe for tests and benchmarks).
func (s *Streamer) Pending() int {
	n := 0
	for _, sh := range s.all {
		sh.mu.Lock()
		n += len(sh.reports) + len(sh.entries)
		for _, p := range sh.parked {
			n += len(p.reports) + len(p.entries)
		}
		sh.mu.Unlock()
	}
	return n
}

// Finalize folds everything still pending regardless of watermarks, closes
// the coalescence streams, and returns the campaign aggregates. Ingests
// after Finalize fail with an error. Sequence gaps left by lost batches are
// handled best-effort: the batches parked behind a gap are still
// time-ordered and (normally) above the fold horizon, so they merge fine —
// only the genuinely lost batch is missing — and the loss is surfaced in
// Aggregates.SeqGaps / DroppedRecords rather than swallowed.
func (s *Streamer) Finalize() *Aggregates {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	if !s.finalized {
		for _, sh := range s.all {
			sh.mu.Lock()
			if len(sh.parked) > 0 {
				s.agg.SeqGaps++
				seqs := make([]uint64, 0, len(sh.parked))
				for q := range sh.parked {
					seqs = append(seqs, q)
				}
				sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
				for _, q := range seqs {
					p := sh.parked[q]
					if err := s.applyLocked(sh, p.reports, p.entries, p.watermark); err != nil {
						s.agg.DroppedRecords += len(p.reports) + len(p.entries)
					}
				}
				sh.parked = nil
			}
			sh.closed = true
			sh.mu.Unlock()
		}
		s.fold(sim.Never)
		for _, keys := range s.panuKeys {
			for _, key := range keys {
				s.relators[key].Close()
			}
		}
		s.finalized = true
	}
	return s.agg
}
