package stats

import "fmt"

// Checkpoint snapshots: Summary and Histogram are the only stats types with
// unexported accumulation state, and both sit inside analysis.Aggregates —
// the state a killed collection sink must persist and restore digit-for-
// digit. A snapshot is the exact internal state as exported, JSON-friendly
// fields; restoring one reproduces the accumulator bit-identically (Go's
// JSON encoder emits shortest round-trip float literals, so even the Welford
// mean/M2 running sums survive a disk round trip unchanged).

// SummarySnapshot is the serializable state of a Summary.
type SummarySnapshot struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// Snapshot captures the summary's exact accumulation state.
func (s *Summary) Snapshot() SummarySnapshot {
	return SummarySnapshot{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
}

// RestoreSummary rebuilds a Summary from a snapshot; subsequent Adds and
// Merges continue exactly as if the accumulator had never been serialized.
func RestoreSummary(snap SummarySnapshot) Summary {
	return Summary{n: snap.N, mean: snap.Mean, m2: snap.M2, min: snap.Min, max: snap.Max}
}

// HistogramSnapshot is the serializable state of a Histogram. The
// observation count is not stored: it is always the sum of the bin counts
// (every Add increments exactly one saturating bin).
type HistogramSnapshot struct {
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Bins []int   `json:"bins"`
}

// Snapshot captures the histogram's binning and counts.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{Lo: h.Lo, Hi: h.Hi, Bins: h.Counts()}
}

// RestoreHistogram rebuilds a Histogram from a snapshot.
func RestoreHistogram(snap HistogramSnapshot) (*Histogram, error) {
	if len(snap.Bins) == 0 || snap.Hi <= snap.Lo {
		return nil, fmt.Errorf("stats: invalid histogram snapshot [%v,%v) x %d",
			snap.Lo, snap.Hi, len(snap.Bins))
	}
	h := NewHistogram(snap.Lo, snap.Hi, len(snap.Bins))
	for i, c := range snap.Bins {
		if c < 0 {
			return nil, fmt.Errorf("stats: negative bin count %d in histogram snapshot", c)
		}
		h.bins[i] = c
	}
	return h, nil
}
