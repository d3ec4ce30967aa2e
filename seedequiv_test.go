package btpan

import (
	"reflect"
	"testing"

	"repro/internal/stack"
	"repro/internal/testbed"
)

// equivCampaign runs a short retained campaign with the ARQ fast path
// enabled or disabled on every host.
func equivCampaign(t *testing.T, slowPath bool, seed uint64) *CampaignResult {
	t.Helper()
	cfg := CampaignConfig{Seed: seed, Duration: 18 * Hour, Scenario: ScenarioSIRAs}
	c, err := testbed.NewCampaign(cfg.Seed, cfg.Scenario, func(name string, hc *stack.Config) {
		hc.ARQ.SlowPath = slowPath
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCampaign(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// shapedCampaign runs cfg with its two testbeds concurrently or one after
// the other.
func shapedCampaign(t *testing.T, cfg CampaignConfig, sequential bool) *CampaignResult {
	t.Helper()
	c, err := testbed.NewCampaign(cfg.Seed, cfg.Scenario, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Sequential = sequential
	res, err := runCampaign(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSeedEquivalenceFastVsSlowPath proves the probability memoization is
// behavior-preserving: with a fixed seed, a campaign run on the memoized
// fast path produces bit-identical analysis outputs (Table 2, Table 3, the
// Table 4 column, and the §6 scalars) to one where every chunk and attempt
// probability is recomputed from scratch (ARQConfig.SlowPath). Both
// settings share the run-length and SDU-batching control flow — those are
// pinned separately by radio's TestBERRunMatchesSlotBER (run queries ==
// per-slot queries, bit for bit) and baseband's
// TestSendSDUMatchesPerFragmentSends (batch draw == per-fragment sends,
// statistically) — so a memoization divergence shows up here as a hard
// failure, not a statistical drift.
func TestSeedEquivalenceFastVsSlowPath(t *testing.T) {
	fast := equivCampaign(t, false, 11)
	slow := equivCampaign(t, true, 11)

	fu, fs, _ := fast.DataItems()
	su, ss, _ := slow.DataItems()
	if fu != su || fs != ss {
		t.Fatalf("data items diverge: fast %d/%d vs slow %d/%d", fu, fs, su, ss)
	}
	if !reflect.DeepEqual(fast.AllReports(), slow.AllReports()) {
		t.Error("user reports diverge between fast and slow paths")
	}
	if !reflect.DeepEqual(fast.Table2(), slow.Table2()) {
		t.Error("Table 2 diverges between fast and slow paths")
	}
	if !reflect.DeepEqual(fast.Table3(), slow.Table3()) {
		t.Error("Table 3 diverges between fast and slow paths")
	}
	if !reflect.DeepEqual(fast.Dependability(), slow.Dependability()) {
		t.Error("Table 4 column diverges between fast and slow paths")
	}
	if !reflect.DeepEqual(fast.Scalars(), slow.Scalars()) {
		t.Error("§6 scalars diverge between fast and slow paths")
	}
}

// TestParallelMatchesSequential proves the execution shape of a retained
// campaign changes nothing but wall-clock time: each testbed owns its
// kernel, RNG rig and logs, so for a fixed seed running the two testbeds
// concurrently or one after the other keeps identical records and folds
// identical tables.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := CampaignConfig{Seed: 21, Duration: 18 * Hour, Scenario: ScenarioSIRAs}
	par := shapedCampaign(t, cfg, false)
	seq := shapedCampaign(t, cfg, true)
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
	compareOutputs(t, "concurrent vs sequential retained", par, seq)
}
