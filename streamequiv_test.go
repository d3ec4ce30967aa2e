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

// runEquiv runs one campaign, keeping its records unless streaming, with
// its testbeds concurrent or sequential.
func runEquiv(t *testing.T, streaming, sequential bool, flush sim.Time) *CampaignResult {
	t.Helper()
	return shapedCampaign(t, CampaignConfig{
		Seed: 7, Duration: equivDuration(), Scenario: ScenarioSIRAsMasking,
		Streaming: streaming, FlushEvery: flush,
	}, sequential)
}

// compareOutputs asserts every paper output of the two campaigns is
// bit-identical: Table 2, Table 3, the Table 4 column, Figures 3a/3b/3c/4
// and the §6 scalars, plus the dataset sizes. reflect.DeepEqual compares
// floats exactly — this is the acceptance bar for the streaming plane, not
// a tolerance check.
func compareOutputs(t *testing.T, label string, a, b *CampaignResult) {
	t.Helper()
	if !reflect.DeepEqual(a.Agg.Fig3bBars(), b.Agg.Fig3bBars()) {
		t.Errorf("%s: Fig 3b diverges", label)
	}
	// A campaign that kept its records also answers Figure 3b from them,
	// through the batch builder, at the aggregate's binning.
	for _, r := range []*CampaignResult{a, b} {
		if r.Config.Streaming {
			continue
		}
		if got := analysis.Fig3bConnectionAge(r.AllReports(), 1000, 10); !reflect.DeepEqual(got, r.Agg.Fig3bBars()) {
			t.Errorf("%s: Fig 3b from the kept records diverges from the fold", label)
		}
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

// TestStreamingEquivalence proves that keeping the records does not
// perturb the fold: on a fixed seed, a campaign that keeps every record
// and one that drops them once folded produce bit-identical Table 2/3/4,
// figure, §6 and taxonomy outputs, and the kept records are exactly the
// folded ones. The masking scenario maximizes coverage (masked records
// exercise every skip path). The retained and streaming captures of
// TestGoldenReportCaptures and TestGoldenTaxonomyCaptures pin both against
// the bytes the former batch retained plane produced.
func TestStreamingEquivalence(t *testing.T) {
	retained := runEquiv(t, false, false, 0)
	streaming := runEquiv(t, true, false, 0)
	compareOutputs(t, "streaming vs retained", retained, streaming)

	u, s, _ := retained.DataItems()
	if u == 0 || s == 0 {
		t.Fatalf("retained campaign collected no data (%d/%d)", u, s)
	}
	if got := len(retained.AllReports()); got != u {
		t.Errorf("retained campaign kept %d reports, folded %d", got, u)
	}
	if got := len(retained.Random.Entries()) + len(retained.Realistic.Entries()); got != s {
		t.Errorf("retained campaign kept %d entries, folded %d", got, s)
	}
	if streaming.AllReports() != nil || streaming.Evidence(10*sim.Second) != nil {
		t.Error("streaming campaign answers a raw-record query")
	}
}

// TestStreamingFlushCadenceIrrelevant proves the aggregates do not depend on
// the drain cadence: minute-scale and half-day-scale flush intervals give
// identical outputs (tuple and radius state carries across drain
// boundaries).
func TestStreamingFlushCadenceIrrelevant(t *testing.T) {
	fine := runEquiv(t, true, true, 10*sim.Minute)
	coarse := runEquiv(t, true, true, 12*Hour)
	compareOutputs(t, "10min vs 12h flush", fine, coarse)
}

// TestStreamingParallelMatchesSequential proves the watermark fold makes
// the one run method deterministic in its execution shape: a streaming
// campaign whose testbeds run concurrently folds the same outputs as one
// whose testbeds run one after the other.
func TestStreamingParallelMatchesSequential(t *testing.T) {
	par := runEquiv(t, true, false, 0)
	seq := runEquiv(t, true, true, 0)
	compareOutputs(t, "parallel vs sequential streaming", par, seq)
}
