package scatternet

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/analysis"
)

// The district wire layer: piconet partials, fold snapshots and the overlay
// partial must survive a JSON round trip (the scatternet session protocol
// and the district checkpoint both serialize them) with no effect on the
// finalized metro report — snapshotting a fold mid-campaign and restoring
// it is indistinguishable from never having serialized at all.

// runDistrictPartials builds the shared rollup campaign and materializes
// every piconet partial plus the overlay partial.
func runDistrictPartials(t *testing.T) (*Campaign, []*analysis.PiconetPartial, *analysis.OverlayPartial) {
	t.Helper()
	c, err := New(rollupConfig())
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*analysis.PiconetPartial, c.Piconets())
	for p := range parts {
		if parts[p], err = c.PiconetPartial(p); err != nil {
			t.Fatalf("piconet %d: %v", p, err)
		}
	}
	overlay, err := c.RunOverlay()
	if err != nil {
		t.Fatal(err)
	}
	if overlay == nil {
		t.Fatal("ring campaign produced no overlay partial")
	}
	return c, parts, overlay
}

// foldReport folds the given partials in order and renders the rollup the
// way the collector's merge does.
func foldReport(t *testing.T, scenario string, fold *analysis.ScatternetFold,
	parts []*analysis.PiconetPartial) string {
	t.Helper()
	for _, p := range parts {
		if err := fold.AddPartial(p); err != nil {
			t.Fatal(err)
		}
	}
	agg, overview, err := fold.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	roll := &analysis.ScatternetRollup{Scenario: scenario, Agg: agg, Overview: overview}
	return roll.Render()
}

// TestFoldSnapshotRoundTrip pins the checkpoint law: snapshot a half-folded
// district, push it through JSON (exactly what the sink's durable
// checkpoint and the exported district partial do), restore, fold the rest
// — the report must be byte-identical to the never-serialized fold.
func TestFoldSnapshotRoundTrip(t *testing.T) {
	c, parts, _ := runDistrictPartials(t)
	scenario := c.ScenarioName()

	want := foldReport(t, scenario, analysis.NewScatternetFold(scenario), parts)

	half := analysis.NewScatternetFold(scenario)
	for _, p := range parts[:len(parts)/2] {
		if err := half.AddPartial(p); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.Marshal(half.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap analysis.ScatternetFoldSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	restored, err := analysis.RestoreScatternetFold(&snap)
	if err != nil {
		t.Fatal(err)
	}
	got := foldReport(t, scenario, restored, parts[len(parts)/2:])
	if got != want {
		t.Errorf("snapshot round trip changed the metro report:\n%s\nvs\n%s", got, want)
	}
}

// TestFoldMergeMatchesSequential pins the district-merge law the collector
// relies on: two disjoint folds merged (each having crossed the wire as a
// snapshot) finalize to the same bytes as one fold over everything.
func TestFoldMergeMatchesSequential(t *testing.T) {
	c, parts, _ := runDistrictPartials(t)
	scenario := c.ScenarioName()
	want := foldReport(t, scenario, analysis.NewScatternetFold(scenario), parts)

	mid := len(parts) / 2
	districts := [][]*analysis.PiconetPartial{parts[:mid], parts[mid:]}
	merged := analysis.NewScatternetFold(scenario)
	for _, dist := range districts {
		f := analysis.NewScatternetFold(scenario)
		for _, p := range dist {
			if err := f.AddPartial(p); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := json.Marshal(f.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var snap analysis.ScatternetFoldSnapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			t.Fatal(err)
		}
		restored, err := analysis.RestoreScatternetFold(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(restored); err != nil {
			t.Fatal(err)
		}
	}
	got := foldReport(t, scenario, merged, nil)
	if got != want {
		t.Errorf("merged district folds differ from the sequential fold:\n%s\nvs\n%s", got, want)
	}
}

// TestOverlayPartialRoundTrip pins the overlay wire format: the bridge
// accumulator and relay-depth tables restored from JSON must render exactly
// as the originals (Welford state crosses the wire as (count, mean, M2), so
// equality is on the rendered statistics, the merge's actual output).
func TestOverlayPartialRoundTrip(t *testing.T) {
	_, _, overlay := runDistrictPartials(t)

	blob, err := json.Marshal(overlay)
	if err != nil {
		t.Fatal(err)
	}
	var back analysis.OverlayPartial
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}

	// The all-bridge summary line the metro report prints — counts plus the
	// two Welford summaries, i.e. every wire-crossing field that shows up.
	summary := func(a *analysis.BridgeAccum) string {
		return fmt.Sprintf("hops=%d relayed=%d lost=%d corrupt=%d outages=%d downtime=%.6f mean-latency=%.6f",
			a.Hops, a.Relayed, a.RelayLost, a.RelayCorrupted,
			a.Outages, a.Downtime.Sum(), a.RelayLatency.Mean())
	}
	wantBridges := analysis.RestoreBridgeAccum(overlay.Bridges)
	gotBridges := analysis.RestoreBridgeAccum(back.Bridges)
	if got, want := summary(gotBridges), summary(wantBridges); got != want {
		t.Errorf("all-bridge summary changed across the wire:\n%s\nvs\n%s", got, want)
	}

	wantDepth := analysis.RestoreRelayDepthAccum(overlay.RelayDepth)
	gotDepth := analysis.RestoreRelayDepthAccum(back.RelayDepth)
	frac := rollupConfig().ProbePairFraction
	if got, want := gotDepth.RenderSampled(frac), wantDepth.RenderSampled(frac); got != want {
		t.Errorf("relay-depth table changed across the wire:\n%s\nvs\n%s", got, want)
	}
}
