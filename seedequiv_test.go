package btpan

import (
	"reflect"
	"testing"
)

// TestSeedEquivalenceFastVsSlowPath proves the probability memoization is
// behavior-preserving: with a fixed seed, a campaign run on the memoized
// fast path produces bit-identical records and analysis outputs (Table 2,
// Table 3, the Table 4 column, the figures and the §6 scalars) to one
// where every chunk and attempt probability is recomputed from scratch
// (ARQConfig.SlowPath). Both settings share the run-length and
// SDU-batching control flow — those are pinned separately by radio's
// TestBERRunMatchesSlotBER (run queries == per-slot queries, bit for bit)
// and baseband's TestSendSDUMatchesPerFragmentSends (batch draw ==
// per-fragment sends, statistically) — so a memoization divergence shows
// up here as a hard failure, not a statistical drift.
func TestSeedEquivalenceFastVsSlowPath(t *testing.T) {
	cfg := CampaignConfig{Seed: 11, Duration: 18 * Hour, Scenario: ScenarioSIRAs}
	fast := retainedPlane.run(t, cfg)
	slow := slowPathPlane.run(t, cfg)
	if !reflect.DeepEqual(fast.AllReports(), slow.AllReports()) {
		t.Error("user reports diverge between fast and slow paths")
	}
	sameBytes(t, "slow path vs fast path", flatBytes(fast), flatBytes(slow))
}

// TestParallelMatchesSequential proves the execution shape of a retained
// campaign changes nothing but wall-clock time: each testbed owns its
// kernel, RNG rig and logs, so for a fixed seed running the two testbeds
// concurrently or one after the other keeps identical records and folds
// identical tables.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := CampaignConfig{Seed: 21, Duration: 18 * Hour, Scenario: ScenarioSIRAs}
	par := retainedPlane.run(t, cfg)
	seq := sequentialPlane.run(t, cfg)
	if len(par.AllReports()) == 0 {
		t.Fatal("retained campaign kept no reports")
	}
	if !reflect.DeepEqual(par.AllReports(), seq.AllReports()) {
		t.Error("user reports diverge between concurrent and sequential runs")
	}
	if !reflect.DeepEqual(par.Random.Entries(), seq.Random.Entries()) ||
		!reflect.DeepEqual(par.Realistic.Entries(), seq.Realistic.Entries()) {
		t.Error("system entries diverge between concurrent and sequential runs")
	}
	sameBytes(t, "concurrent vs sequential retained", flatBytes(par), flatBytes(seq))
}
