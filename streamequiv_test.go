package btpan

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// equivDuration is the equivalence suite's observation window. The streaming
// and scatternet equivalence tests compare runs of this exact duration
// against each other at a fixed seed, so -short (the CI race job) may shrink
// it without weakening the bit-identity claim — both sides shrink together.
func equivDuration() sim.Time {
	if testing.Short() {
		return 6 * Hour
	}
	return 1 * Day
}

// runEquiv runs one campaign with the given aggregation plane.
func runEquiv(t *testing.T, streaming bool, parallelism int, flush sim.Time) *CampaignResult {
	t.Helper()
	res, err := RunCampaign(CampaignConfig{
		Seed: 7, Duration: equivDuration(), Scenario: ScenarioSIRAsMasking,
		Streaming: streaming, Parallelism: parallelism, FlushEvery: flush,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareOutputs asserts every paper output of the two campaigns is
// bit-identical: Table 2, Table 3, the Table 4 column, Figures 3a/3b/3c/4
// and the §6 scalars, plus the dataset sizes. reflect.DeepEqual compares
// floats exactly — this is the acceptance bar for the streaming plane, not
// a tolerance check.
func compareOutputs(t *testing.T, label string, a, b *CampaignResult) {
	t.Helper()
	// Figure 3b's view at the aggregate's binning: streaming keeps the
	// histogram, retained recomputes it from raw reports.
	fig3b := func(r *CampaignResult) []analysis.Bar {
		if r.Agg != nil {
			return r.Agg.Fig3bBars()
		}
		return analysis.Fig3bConnectionAge(r.AllReports(), 1000, 10)
	}
	if !reflect.DeepEqual(fig3b(a), fig3b(b)) {
		t.Errorf("%s: Fig 3b diverges", label)
	}
	au, as, _ := a.DataItems()
	bu, bs, _ := b.DataItems()
	if au != bu || as != bs {
		t.Fatalf("%s: data items diverge: %d/%d vs %d/%d", label, au, as, bu, bs)
	}
	if !reflect.DeepEqual(a.Table2(), b.Table2()) {
		t.Errorf("%s: Table 2 diverges", label)
	}
	if !reflect.DeepEqual(a.Table3(), b.Table3()) {
		t.Errorf("%s: Table 3 diverges", label)
	}
	if !reflect.DeepEqual(a.Dependability(), b.Dependability()) {
		t.Errorf("%s: Table 4 column diverges:\n a %+v\n b %+v",
			label, a.Dependability(), b.Dependability())
	}
	if !reflect.DeepEqual(a.Fig3c(), b.Fig3c()) {
		t.Errorf("%s: Fig 3c diverges", label)
	}
	if !reflect.DeepEqual(a.Fig4(), b.Fig4()) {
		t.Errorf("%s: Fig 4 diverges", label)
	}
	if !reflect.DeepEqual(a.Fig3a(), b.Fig3a()) {
		t.Errorf("%s: Fig 3a diverges", label)
	}
	if !reflect.DeepEqual(a.Scalars(), b.Scalars()) {
		t.Errorf("%s: §6 scalars diverge:\n a %+v\n b %+v", label, a.Scalars(), b.Scalars())
	}
	// The taxonomy plane: the rendered tables are the acceptance surface, so
	// equality is asserted on the exact report bytes the -taxonomy flag
	// emits, not on a tolerance.
	horizon := a.Config.Duration
	if got, want := a.Taxonomy().Table(horizon).Render(), b.Taxonomy().Table(horizon).Render(); got != want {
		t.Errorf("%s: taxonomy table diverges:\n a:\n%s\n b:\n%s", label, got, want)
	}
	if got, want := a.Survival().Curve(horizon).Render(), b.Survival().Curve(horizon).Render(); got != want {
		t.Errorf("%s: survival curve diverges:\n a:\n%s\n b:\n%s", label, got, want)
	}
	if got, want := a.Survival().RenderInterarrival(40), b.Survival().RenderInterarrival(40); got != want {
		t.Errorf("%s: interarrival histogram diverges:\n a:\n%s\n b:\n%s", label, got, want)
	}
}

// TestStreamingEquivalence proves the streaming aggregation plane is
// behavior-preserving: on a fixed seed, a campaign whose records are folded
// into running aggregates as they stream off the nodes produces bit-identical
// Table 2/3/4 and §6 outputs to a campaign that retained every record. The
// masking scenario maximizes coverage (masked records exercise every skip
// path).
func TestStreamingEquivalence(t *testing.T) {
	retained := runEquiv(t, false, 0, 0)
	streaming := runEquiv(t, true, 0, 0)
	compareOutputs(t, "streaming vs retained", retained, streaming)

	// The simulation side is untouched by the collection plane: the
	// retained run still holds every record.
	if u, s, _ := retained.DataItems(); u == 0 || s == 0 {
		t.Fatalf("retained campaign collected no data (%d/%d)", u, s)
	}
	if streaming.Agg == nil {
		t.Fatal("streaming campaign has no aggregates")
	}
}

// TestStreamingFlushCadenceIrrelevant proves the aggregates do not depend on
// the drain cadence: minute-scale and half-day-scale flush intervals give
// identical outputs (tuple and radius state carries across drain
// boundaries).
func TestStreamingFlushCadenceIrrelevant(t *testing.T) {
	fine := runEquiv(t, true, 1, 10*sim.Minute)
	coarse := runEquiv(t, true, 1, 12*Hour)
	compareOutputs(t, "10min vs 12h flush", fine, coarse)
}

// TestStreamingParallelMatchesSequential proves the watermark fold makes
// the two-goroutine streaming run deterministic: same outputs as the
// single-goroutine run.
func TestStreamingParallelMatchesSequential(t *testing.T) {
	par := runEquiv(t, true, 0, 0)
	seq := runEquiv(t, true, 1, 0)
	compareOutputs(t, "parallel vs sequential streaming", par, seq)
}
