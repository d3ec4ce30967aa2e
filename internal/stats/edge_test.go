package stats

import (
	"math"
	"testing"
)

// The sweep engine leans on CI95/TCrit95 and the shard-merge algebra in
// exactly the regimes ordinary runs rarely visit: one-seed sweeps, two-seed
// sweeps (df = 1, the fattest t critical value), zero-variance columns, and
// shards that collected nothing. This file pins those edges table-driven.

// TestCI95Edges pins the estimator's degenerate and small-sample behavior.
func TestCI95Edges(t *testing.T) {
	cases := []struct {
		name     string
		xs       []float64
		wantMean float64
		wantHalf float64
		wantN    int
	}{
		{"empty", nil, 0, 0, 0},
		{"n=1", []float64{42}, 42, 0, 1},
		{"n=1 negative", []float64{-3.5}, -3.5, 0, 1},
		// n=2: df=1, t=12.706; sd of {1,3} is sqrt(2), half = 12.706*sqrt(2)/sqrt(2).
		{"n=2", []float64{1, 3}, 2, 12.706, 2},
		{"n=2 zero variance", []float64{7, 7}, 7, 0, 2},
		{"n=5 zero variance", []float64{2, 2, 2, 2, 2}, 2, 0, 5},
		// n=31: beyond the t table, z = 1.96; all values equal → half 0.
		{"n=31 zero variance", make31(9), 9, 0, 31},
	}
	for _, tc := range cases {
		e := CI95(tc.xs)
		if e.N != tc.wantN || !approxEq(e.Mean, tc.wantMean, 1e-12) || !approxEq(e.Half, tc.wantHalf, 1e-9) {
			t.Errorf("%s: CI95 = %+v, want mean %v half %v n %d",
				tc.name, e, tc.wantMean, tc.wantHalf, tc.wantN)
		}
		if e.Half != 0 && tc.wantHalf == 0 {
			t.Errorf("%s: zero-variance sample produced half-width %v", tc.name, e.Half)
		}
	}
}

// make31 builds 31 copies of x (one past the t table's last entry).
func make31(x float64) []float64 {
	xs := make([]float64, 31)
	for i := range xs {
		xs[i] = x
	}
	return xs
}

// TestTCrit95Table pins the t-table lookup at its edges: first entry,
// last entry, the normal fallback, and invalid degrees of freedom.
func TestTCrit95Table(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{-1, 0}, {0, 0}, // no estimate from fewer than two samples
		{1, 12.706},  // two samples: the fattest interval
		{2, 4.303},   // three samples
		{29, 2.045},  // deep in the table
		{30, 2.042},  // last tabulated entry
		{31, 1.96},   // first normal-approximation df
		{1000, 1.96}, // far beyond
	}
	for _, tc := range cases {
		if got := TCrit95(tc.df); got != tc.want {
			t.Errorf("TCrit95(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
	// Monotonicity across the whole table: more data, tighter intervals.
	for df := 2; df <= 31; df++ {
		if TCrit95(df) >= TCrit95(df-1) {
			t.Errorf("TCrit95 not decreasing at df=%d: %v >= %v", df, TCrit95(df), TCrit95(df-1))
		}
	}
}

// TestEstimateFormatting pins the small-N rendering: below two samples an
// estimate prints without a ± suffix.
func TestEstimateFormatting(t *testing.T) {
	cases := []struct {
		e    Estimate
		str  string
		fmtd string
	}{
		{Estimate{Mean: 5, N: 0}, "5.00", "5.0"},
		{Estimate{Mean: 5, N: 1}, "5.00", "5.0"},
		{Estimate{Mean: 5, Half: 1.25, N: 4}, "5.00±1.25", "5.0±1.2"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.str {
			t.Errorf("String() = %q, want %q", got, tc.str)
		}
		if got := tc.e.Format("%.1f"); got != tc.fmtd {
			t.Errorf("Format() = %q, want %q", got, tc.fmtd)
		}
	}
}

// TestSummaryMergeEmptyShards pins the merge identities the sharded
// aggregation plane hits when a shard collected nothing: empty-into-X,
// X-into-empty, and empty-into-empty must all behave like no-ops or copies.
func TestSummaryMergeEmptyShards(t *testing.T) {
	full := func() Summary {
		var s Summary
		for _, x := range []float64{3, 1, 4, 1.5} {
			s.Add(x)
		}
		return s
	}

	// X-into-empty: the copy case.
	var intoEmpty Summary
	intoEmpty.Merge(full())
	if want := full(); intoEmpty != want {
		t.Errorf("empty.Merge(full) = %+v, want %+v", intoEmpty, want)
	}

	// Empty-into-X: the no-op case — every statistic unchanged.
	withEmpty := full()
	withEmpty.Merge(Summary{})
	if want := full(); withEmpty != want {
		t.Errorf("full.Merge(empty) = %+v, want %+v", withEmpty, want)
	}

	// Empty-into-empty stays empty and defined.
	var both Summary
	both.Merge(Summary{})
	if both.N() != 0 || both.Mean() != 0 || both.Var() != 0 || both.Min() != 0 || both.Max() != 0 {
		t.Errorf("empty.Merge(empty) = %+v, want zeros", both)
	}
	if math.IsNaN(both.StdDev()) {
		t.Error("empty merge produced NaN standard deviation")
	}

	// A chain interleaving empty shards equals the dense fold.
	var chain Summary
	for i := 0; i < 3; i++ {
		chain.Merge(Summary{})
		chain.Merge(full())
	}
	var dense Summary
	for i := 0; i < 3; i++ {
		dense.Merge(full())
	}
	if chain.N() != dense.N() || !approxEq(chain.Mean(), dense.Mean(), 1e-12) ||
		!approxEq(chain.Var(), dense.Var(), 1e-12) {
		t.Errorf("interleaved empty shards changed the fold: %+v vs %+v", chain, dense)
	}
}

// TestHistogramMergeEmptyShards pins histogram merge with empty shards and
// the nil-shard guard.
func TestHistogramMergeEmptyShards(t *testing.T) {
	full := func() *Histogram {
		h := NewHistogram(0, 10, 5)
		for _, x := range []float64{1, 2, 2, 9, -1, 11} {
			h.Add(x)
		}
		return h
	}
	want := full().Counts()

	h := full()
	h.Merge(NewHistogram(0, 10, 5)) // empty, same binning
	if observations(h) != 6 {
		t.Fatalf("merge with empty shard changed N: %d", observations(h))
	}
	for i, c := range h.Counts() {
		if c != want[i] {
			t.Errorf("bin %d changed after empty merge: %d != %d", i, c, want[i])
		}
	}

	empty := NewHistogram(0, 10, 5)
	empty.Merge(full())
	if observations(empty) != 6 {
		t.Fatalf("empty.Merge(full) N = %d, want 6", observations(empty))
	}
	for i, c := range empty.Counts() {
		if c != want[i] {
			t.Errorf("empty.Merge(full) bin %d = %d, want %d", i, c, want[i])
		}
	}

	// nil shard: the guard must make it a no-op, not a panic.
	h2 := full()
	h2.Merge(nil)
	if observations(h2) != 6 {
		t.Errorf("Merge(nil) changed N: %d", observations(h2))
	}
}
