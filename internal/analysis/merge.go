package analysis

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
)

// The merge tier for horizontally sharded sinks: N sink shards each fold a
// disjoint subset of a campaign's testbeds into their own Aggregates, and
// MergeAggregates folds the N partials into the one Aggregates a
// single-process run of the full campaign would have produced — exactly,
// digit for digit.
//
// Almost everything merges algebraically, as pinned by the PR 2 shard-merge
// laws: Evidence cells, Table 3 counts, the per-host and per-app count maps,
// the connection-age histogram bins and the scalar counters are all plain
// sums (the float64-valued AppLoss counts are integer-valued, so addition is
// exact well below 2^53). The single exception is the Table 4 accumulator:
// DependAccum's TTF samples are the gaps between consecutive unmasked
// failures of the campaign-GLOBAL interleaved failure sequence, so the
// within-shard Welford summaries sample different gaps than the
// uninterrupted run and cannot be combined by Summary.Merge. Shards
// therefore record a fold-ordered DependEvent trace (StreamSpec.TraceDepend)
// and the merge tier sorts the traces back into campaign order — (time,
// spec testbed rank, position in the shard's trace), the fold's exact tie
// order — and re-runs a fresh DependAccum over the merged sequence
// (replayDepend, shared with the scatternet roll-up one tier up).

// DependEvent is one unmasked failure in a shard's fold-ordered trace:
// exactly the fields DependAccum consumes, plus the (testbed, node) fold key
// the merge tier re-interleaves traces by.
type DependEvent struct {
	At        sim.Time            `json:"at"`
	Testbed   string              `json:"testbed"`
	Node      string              `json:"node"`
	Recovered bool                `json:"recovered,omitempty"`
	TTR       sim.Time            `json:"ttr,omitempty"`
	Recovery  core.RecoveryAction `json:"recovery,omitempty"`
}

// report reconstructs the unmasked UserReport view DependAccum.Add folds.
func (e *DependEvent) report() core.UserReport {
	return core.UserReport{At: e.At, Recovered: e.Recovered, TTR: e.TTR, Recovery: e.Recovery}
}

// taggedEvent is one unmasked failure of a merged trace, tagged with what
// makes the replay order total: its group (a testbed's full-spec rank, or a
// piconet) and its position in the fold-ordered trace it came from.
type taggedEvent struct {
	ev    DependEvent
	group int
	pos   int
}

// tagTrace appends one fold-ordered trace to dst, tagging each event with
// group(event) and its position in trace. The trace must hold exactly the
// failures its source accumulated: one recorded without TraceDepend would
// silently drop them from the replay.
func tagTrace(dst []taggedEvent, trace []DependEvent, failures int,
	group func(*DependEvent) int) ([]taggedEvent, error) {
	if len(trace) != failures {
		return dst, fmt.Errorf("trace has %d events for %d accumulated failures (TraceDepend not enabled?)",
			len(trace), failures)
	}
	for i := range trace {
		dst = append(dst, taggedEvent{ev: trace[i], group: group(&trace[i]), pos: i})
	}
	return dst, nil
}

// replayDepend sorts a tagged trace into campaign order — (time, group,
// position) — and re-derives the Table 4 accumulator over it, with the
// masked count the trace does not carry. Each source trace is already in
// fold order and a group lives in one source, so the sort interleaves the
// sources exactly as one uninterrupted fold would have.
func replayDepend(trace []taggedEvent, masked int) DependAccum {
	sort.Slice(trace, func(i, j int) bool {
		a, b := &trace[i], &trace[j]
		if a.ev.At != b.ev.At {
			return a.ev.At < b.ev.At
		}
		if a.group != b.group {
			return a.group < b.group
		}
		return a.pos < b.pos
	})
	d := DependAccum{Masked: masked}
	for i := range trace {
		r := trace[i].ev.report()
		d.Add(&r)
	}
	return d
}

// ShardAggregates is one sink shard's contribution to a campaign: the
// finalized aggregates of the testbed subset it hosted, plus the depend
// trace (required whenever more than one shard is merged).
type ShardAggregates struct {
	// Testbeds names the subset this shard folded, in the shard's own spec
	// order. The union over all shards must be exactly the full campaign
	// spec's testbeds, with no overlap.
	Testbeds []string            `json:"testbeds"`
	Agg      *AggregatesSnapshot `json:"agg"`
	Trace    []DependEvent       `json:"trace,omitempty"`
}

// MergeAggregates folds per-shard partials into the full campaign's
// Aggregates. spec is the FULL campaign stream spec (its testbed order
// defines the fold tie rank); each partial covers a disjoint, non-empty
// subset of its testbeds and together they must cover all of them. The
// result is bit-identical to a single streamer folding every testbed — the
// sharded-sink analogue of the checkpoint guarantee (see the merge-law
// tests).
func MergeAggregates(spec StreamSpec, parts []ShardAggregates) (*Aggregates, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("analysis: merge of zero shard partials")
	}
	rank := make(map[string]int, len(spec.Testbeds))
	for i, tb := range spec.Testbeds {
		rank[tb.Name] = i
	}
	covered := make(map[string]bool, len(rank))
	for pi, p := range parts {
		if p.Agg == nil {
			return nil, fmt.Errorf("analysis: shard partial %d has no aggregates", pi)
		}
		if len(p.Testbeds) == 0 {
			return nil, fmt.Errorf("analysis: shard partial %d declares no testbeds", pi)
		}
		for _, name := range p.Testbeds {
			if _, ok := rank[name]; !ok {
				return nil, fmt.Errorf("analysis: shard partial %d covers testbed %q not in the campaign spec",
					pi, name)
			}
			if covered[name] {
				return nil, fmt.Errorf("analysis: testbed %q covered by more than one shard partial", name)
			}
			covered[name] = true
		}
	}
	if len(covered) != len(rank) {
		for _, tb := range spec.Testbeds {
			if !covered[tb.Name] {
				return nil, fmt.Errorf("analysis: no shard partial covers testbed %q", tb.Name)
			}
		}
	}

	// Restore each partial; a single full-coverage partial passes through
	// (its DependAccum is already the campaign-global one, trace optional).
	restored := make([]*Aggregates, len(parts))
	for i, p := range parts {
		a, err := RestoreAggregates(p.Agg)
		if err != nil {
			return nil, fmt.Errorf("analysis: shard partial %d: %w", i, err)
		}
		restored[i] = a
	}
	if len(parts) == 1 {
		return restored[0], nil
	}

	out := restored[0]
	for i := 1; i < len(restored); i++ {
		if restored[i].Window != out.Window || restored[i].Radius != out.Radius {
			return nil, fmt.Errorf("analysis: shard partials disagree on window/radius: %v/%v vs %v/%v",
				out.Window, out.Radius, restored[i].Window, restored[i].Radius)
		}
		addAggregates(out, restored[i])
	}

	// Re-derive the order-sensitive Table 4 accumulator from the merged
	// trace. Ties on (at, rank) can only come from the same shard — a
	// testbed belongs to exactly one — so the within-trace position resolves
	// them in the shard's own (time, rank, node) fold order.
	var masked int
	var trace []taggedEvent
	byRank := func(ev *DependEvent) int { return rank[ev.Testbed] }
	for i, p := range parts {
		masked += restored[i].Depend.Masked
		var err error
		if trace, err = tagTrace(trace, p.Trace, restored[i].Depend.Failures, byRank); err != nil {
			return nil, fmt.Errorf("analysis: shard partial %d %w", i, err)
		}
	}
	out.Depend = replayDepend(trace, masked)
	return out, nil
}

// addAggregates folds src's order-insensitive state into dst (everything but
// Depend, which the caller re-derives from the merged trace).
func addAggregates(dst, src *Aggregates) {
	for k, n := range src.Evidence.Counts {
		dst.Evidence.Counts[k] += n
	}
	for f, n := range src.Evidence.FailureTotals {
		dst.Evidence.FailureTotals[f] += n
	}
	for f, n := range src.Evidence.NoRelationship {
		dst.Evidence.NoRelationship[f] += n
	}
	dst.Evidence.TotalFailures += src.Evidence.TotalFailures
	for f, row := range src.T3.Rows {
		d := dst.T3.Rows[f]
		for i := range row {
			d[i] += row[i]
		}
		dst.T3.Rows[f] = d
	}
	for i := range src.T3.Totals {
		dst.T3.Totals[i] += src.T3.Totals[i]
	}
	dst.T3.Grand += src.T3.Grand
	for app, n := range src.AppLoss {
		dst.AppLoss[app] += n
	}
	for node, counts := range src.PerHost {
		m := dst.PerHost[node]
		if m == nil {
			m = make(map[core.UserFailure]int, len(counts))
			dst.PerHost[node] = m
		}
		for f, n := range counts {
			m[f] += n
		}
	}
	dst.ConnAge.Merge(src.ConnAge)
	dst.Tax.Merge(src.Tax)
	dst.Surv.Merge(src.Surv)
	dst.ScalarC.NRandom += src.ScalarC.NRandom
	dst.ScalarC.NRealistic += src.ScalarC.NRealistic
	for d, n := range src.ScalarC.DistCount {
		dst.ScalarC.DistCount[d] += n
	}
	dst.ScalarC.DistTotal += src.ScalarC.DistTotal
	dst.Reports += src.Reports
	dst.Entries += src.Entries
	dst.SeqGaps += src.SeqGaps
	dst.DroppedRecords += src.DroppedRecords
}

// SubSpec restricts a full campaign spec to the named testbeds, preserving
// the full spec's rank order (so a shard's internal fold-tie order matches
// its slice of the campaign order) and enabling TraceDepend whenever the
// subset is proper — the streamer then records what MergeAggregates needs.
func SubSpec(full StreamSpec, testbeds []string) (StreamSpec, error) {
	want := make(map[string]bool, len(testbeds))
	for _, name := range testbeds {
		if want[name] {
			return StreamSpec{}, fmt.Errorf("analysis: duplicate testbed %q in subset", name)
		}
		want[name] = true
	}
	sub := StreamSpec{Window: full.Window, Radius: full.Radius, TraceDepend: full.TraceDepend}
	for _, tb := range full.Testbeds {
		if want[tb.Name] {
			sub.Testbeds = append(sub.Testbeds, tb)
			delete(want, tb.Name)
		}
	}
	if len(want) > 0 {
		missing := make([]string, 0, len(want))
		for name := range want {
			missing = append(missing, name)
		}
		sort.Strings(missing)
		return StreamSpec{}, fmt.Errorf("analysis: testbeds %v not in the campaign spec", missing)
	}
	if len(sub.Testbeds) < len(full.Testbeds) {
		sub.TraceDepend = true
	}
	return sub, nil
}
