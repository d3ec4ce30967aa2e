package stats

import (
	"encoding/json"
	"testing"
)

// TestSummarySnapshotRoundTrip pins that a Summary serialized mid-stream and
// restored continues bit-identically: restore → add the rest → merge equals
// the never-interrupted accumulator, through a JSON disk round trip.
func TestSummarySnapshotRoundTrip(t *testing.T) {
	xs := make([]float64, 0, 1000)
	v := 0.5
	for i := 0; i < 1000; i++ {
		v = v*3.9*(1-v) + 1e-9 // logistic map: irregular, exactly reproducible
		xs = append(xs, v*1e3)
	}
	var whole Summary
	for _, x := range xs {
		whole.Add(x)
	}

	var first Summary
	for _, x := range xs[:500] {
		first.Add(x)
	}
	blob, err := json.Marshal(first.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap SummarySnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	resumed := RestoreSummary(snap)
	for _, x := range xs[500:] {
		resumed.Add(x)
	}
	if resumed != whole {
		t.Errorf("resumed summary diverges: %+v vs %+v", resumed, whole)
	}

	// Merge path: restored halves merge exactly as the live halves do (the
	// merge itself is a different float evaluation order than sequential
	// Add, so the reference is a live merge, not the sequential whole).
	var second Summary
	for _, x := range xs[500:] {
		second.Add(x)
	}
	live := first
	live.Merge(second)
	merged := RestoreSummary(first.Snapshot())
	merged.Merge(RestoreSummary(second.Snapshot()))
	if merged != live {
		t.Errorf("merged restored summaries diverge: %+v vs %+v", merged, live)
	}

	// Empty summary round trip.
	var empty Summary
	if got := RestoreSummary(empty.Snapshot()); got != empty {
		t.Errorf("empty summary round trip changed state: %+v", got)
	}
}

// TestHistogramSnapshotRoundTrip pins the histogram checkpoint path,
// including saturating edge bins and the merge-after-restore law.
func TestHistogramSnapshotRoundTrip(t *testing.T) {
	whole := NewHistogram(0, 100, 10)
	first := NewHistogram(0, 100, 10)
	second := NewHistogram(0, 100, 10)
	for i := -20; i < 180; i++ {
		x := float64(i) * 0.77
		whole.Add(x)
		if i < 80 {
			first.Add(x)
		} else {
			second.Add(x)
		}
	}
	blob, err := json.Marshal(first.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap HistogramSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	resumed, err := RestoreHistogram(snap)
	if err != nil {
		t.Fatal(err)
	}
	resumed.Merge(second)
	if observations(resumed) != observations(whole) {
		t.Fatalf("resumed histogram count %d, want %d", observations(resumed), observations(whole))
	}
	rc, wc := resumed.Counts(), whole.Counts()
	for i := range wc {
		if rc[i] != wc[i] {
			t.Errorf("bin %d: %d vs %d", i, rc[i], wc[i])
		}
	}

	// Invalid snapshots must be rejected.
	if _, err := RestoreHistogram(HistogramSnapshot{Lo: 1, Hi: 0, Bins: []int{1}}); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := RestoreHistogram(HistogramSnapshot{Lo: 0, Hi: 1, Bins: []int{-1}}); err == nil {
		t.Error("negative bin accepted")
	}
}
