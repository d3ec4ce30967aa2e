package btpan

import (
	"testing"

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

// equivConfig is the equivalence suite's campaign at the given flush
// cadence (0: the default hour). The masking scenario maximizes coverage
// (masked records exercise every skip path).
func equivConfig(flush sim.Time) CampaignConfig {
	return CampaignConfig{Seed: 7, Duration: equivDuration(), Scenario: ScenarioSIRAsMasking,
		FlushEvery: flush}
}

// TestStreamingEquivalence proves that keeping the records does not
// perturb the fold: on a fixed seed, a campaign that keeps every record
// and one that drops them once folded produce bit-identical Table 2/3/4,
// figure, §6 and taxonomy outputs, and the kept records are exactly the
// folded ones. The retained and streaming captures of
// TestGoldenReportCaptures and TestGoldenTaxonomyCaptures pin both against
// the bytes the former batch retained plane produced.
func TestStreamingEquivalence(t *testing.T) {
	cfg := equivConfig(0)
	retained := retainedPlane.run(t, cfg)
	streaming := streamingPlane.run(t, cfg)
	sameBytes(t, "streaming vs retained", flatBytes(retained), flatBytes(streaming))

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
	fine := equivConfig(10 * sim.Minute)
	fine.Streaming = true
	coarse := fine
	coarse.FlushEvery = 12 * Hour
	sameBytes(t, "10min vs 12h flush",
		flatBytes(sequentialPlane.run(t, fine)), flatBytes(sequentialPlane.run(t, coarse)))
}

// TestStreamingParallelMatchesSequential proves the watermark fold makes
// the one run method deterministic in its execution shape: a streaming
// campaign whose testbeds run concurrently folds the same outputs as one
// whose testbeds run one after the other.
func TestStreamingParallelMatchesSequential(t *testing.T) {
	cfg := equivConfig(0)
	cfg.Streaming = true
	agreeFlat(t, cfg, streamingPlane, sequentialPlane)
}
