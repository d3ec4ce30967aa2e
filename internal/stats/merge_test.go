package stats

import (
	"math"
	"testing"
)

// shardStreams builds deterministic per-shard observation streams, the shape
// the sharded aggregation plane produces: several shards, uneven sizes.
func shardStreams() [][]float64 {
	streams := make([][]float64, 4)
	x := 0.5
	for i := range streams {
		n := 7 + 13*i
		for j := 0; j < n; j++ {
			// A fixed quadratic-ish sequence: spread-out, non-monotonic.
			x = math.Mod(x*37.0+float64(j)*1.7, 103.0)
			streams[i] = append(streams[i], x-51.5)
		}
	}
	return streams
}

func approxEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestSummaryMergeAssociativeCommutative proves the shard-merge algebra the
// sweep engine relies on: merge(a, b) == merge(b, a) and
// merge(merge(a, b), c) == merge(a, merge(b, c)) up to float rounding, and
// both equal the single-stream fold.
func TestSummaryMergeAssociativeCommutative(t *testing.T) {
	streams := shardStreams()
	shards := make([]Summary, len(streams))
	var single Summary
	for i, xs := range streams {
		for _, x := range xs {
			shards[i].Add(x)
			single.Add(x)
		}
	}

	var ab, ba Summary
	ab.Merge(shards[0])
	ab.Merge(shards[1])
	ba.Merge(shards[1])
	ba.Merge(shards[0])
	if ab.N() != ba.N() || !approxEq(ab.Mean(), ba.Mean(), 1e-12) ||
		!approxEq(ab.Var(), ba.Var(), 1e-12) ||
		ab.Min() != ba.Min() || ab.Max() != ba.Max() {
		t.Errorf("merge not commutative: %+v vs %+v", ab, ba)
	}

	var left, right Summary
	left.Merge(shards[0])
	left.Merge(shards[1])
	left.Merge(shards[2])
	var bc Summary
	bc.Merge(shards[1])
	bc.Merge(shards[2])
	right.Merge(shards[0])
	right.Merge(bc)
	if left.N() != right.N() || !approxEq(left.Mean(), right.Mean(), 1e-12) ||
		!approxEq(left.Var(), right.Var(), 1e-12) {
		t.Errorf("merge not associative: %+v vs %+v", left, right)
	}

	var merged Summary
	for i := range shards {
		merged.Merge(shards[i])
	}
	if merged.N() != single.N() {
		t.Fatalf("merged N = %d, single-stream N = %d", merged.N(), single.N())
	}
	if !approxEq(merged.Mean(), single.Mean(), 1e-12) ||
		!approxEq(merged.Var(), single.Var(), 1e-9) ||
		merged.Min() != single.Min() || merged.Max() != single.Max() {
		t.Errorf("merged summary diverges from single stream:\nmerged %+v\nsingle %+v", merged, single)
	}
}

// TestHistogramMergeMatchesSingleStream proves histogram shard-merge is exact
// (integer bins): merged counts equal the single-stream fold, and merge is
// commutative.
func TestHistogramMergeMatchesSingleStream(t *testing.T) {
	streams := shardStreams()
	single := NewHistogram(-60, 60, 12)
	shards := make([]*Histogram, len(streams))
	for i, xs := range streams {
		shards[i] = NewHistogram(-60, 60, 12)
		for _, x := range xs {
			shards[i].Add(x)
			single.Add(x)
		}
	}

	ab := NewHistogram(-60, 60, 12)
	ab.Merge(shards[0])
	ab.Merge(shards[1])
	ba := NewHistogram(-60, 60, 12)
	ba.Merge(shards[1])
	ba.Merge(shards[0])
	abc, bac := ab.Counts(), ba.Counts()
	for i := range abc {
		if abc[i] != bac[i] {
			t.Fatalf("histogram merge not commutative at bin %d: %d vs %d", i, abc[i], bac[i])
		}
	}

	merged := NewHistogram(-60, 60, 12)
	for _, s := range shards {
		merged.Merge(s)
	}
	if observations(merged) != observations(single) {
		t.Fatalf("merged N = %d, single N = %d", observations(merged), observations(single))
	}
	mc, sc := merged.Counts(), single.Counts()
	for i := range mc {
		if mc[i] != sc[i] {
			t.Errorf("bin %d: merged %d, single %d", i, mc[i], sc[i])
		}
	}
}

// TestHistogramMergePanicsOnBinningMismatch pins the guard against merging
// incompatible shards.
func TestHistogramMergePanicsOnBinningMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for binning mismatch")
		}
	}()
	NewHistogram(0, 10, 5).Merge(NewHistogram(0, 10, 6))
}

// TestCI95 pins the confidence-interval helper: known small-sample values
// and the degenerate cases.
func TestCI95(t *testing.T) {
	if e := CI95(nil); e.Mean != 0 || e.Half != 0 || e.N != 0 {
		t.Errorf("empty CI95 = %+v", e)
	}
	if e := CI95([]float64{5}); e.Mean != 5 || e.Half != 0 {
		t.Errorf("single-sample CI95 = %+v", e)
	}
	// n=4, xs = {1,2,3,4}: mean 2.5, sd = sqrt(5/3), half = 3.182*sd/2.
	e := CI95([]float64{1, 2, 3, 4})
	wantHalf := 3.182 * math.Sqrt(5.0/3.0) / 2
	if !approxEq(e.Mean, 2.5, 1e-12) || !approxEq(e.Half, wantHalf, 1e-9) {
		t.Errorf("CI95 = %+v, want mean 2.5 half %.4f", e, wantHalf)
	}
	// Large-sample fallback uses z = 1.96.
	if got := TCrit95(200); got != 1.96 {
		t.Errorf("TCrit95(200) = %v", got)
	}
	if got := TCrit95(0); got != 0 {
		t.Errorf("TCrit95(0) = %v", got)
	}
	// Summary-side accessor agrees with the slice helper.
	var s Summary
	for _, x := range []float64{1, 2, 3, 4} {
		s.Add(x)
	}
	if se := s.CI95(); se != e {
		t.Errorf("Summary.CI95 %+v != CI95 %+v", se, e)
	}
}
