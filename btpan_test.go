package btpan

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
)

func TestCampaignConfigValidate(t *testing.T) {
	good := CampaignConfig{Seed: 1, Duration: Day, Scenario: ScenarioSIRAs}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Duration = 0
	if bad.Validate() == nil {
		t.Error("zero duration accepted")
	}
	bad = good
	bad.Scenario = 9
	if bad.Validate() == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := RunCampaign(bad); err == nil {
		t.Error("RunCampaign should reject a bad config")
	}
}

var (
	testCampaignOnce sync.Once
	testCampaignRes  *CampaignResult
	testCampaignErr  error
)

// testCampaign runs one small shared campaign for the facade tests. The
// result is cached: tests only read from it. -short (the CI race job)
// shrinks the observation window; every assertion on the result is
// qualitative, so it holds on the shorter campaign too.
func testCampaign(t *testing.T) *CampaignResult {
	t.Helper()
	testCampaignOnce.Do(func() {
		dur := 36 * Hour
		if testing.Short() {
			dur = 12 * Hour
		}
		testCampaignRes, testCampaignErr = RunCampaign(CampaignConfig{
			Seed: 5, Duration: dur, Scenario: ScenarioSIRAs,
		})
	})
	if testCampaignErr != nil {
		t.Fatal(testCampaignErr)
	}
	return testCampaignRes
}

func TestRunCampaignProducesData(t *testing.T) {
	res := testCampaign(t)
	u, s, tot := res.DataItems()
	if u == 0 || s == 0 || tot != u+s {
		t.Fatalf("DataItems = %d/%d/%d", u, s, tot)
	}
	if len(res.AllReports()) != u {
		t.Error("AllReports size mismatch")
	}
	if res.Random == nil || res.Realistic == nil {
		t.Fatal("missing testbed results")
	}
}

func TestCampaignDeterminism(t *testing.T) {
	run := func() (int, int) {
		res, err := RunCampaign(CampaignConfig{
			Seed: 9, Duration: 12 * Hour, Scenario: ScenarioSIRAs,
		})
		if err != nil {
			t.Fatal(err)
		}
		u, s, _ := res.DataItems()
		return u, s
	}
	au, as := run()
	bu, bs := run()
	if au != bu || as != bs {
		t.Errorf("same seed diverged: %d/%d vs %d/%d", au, as, bu, bs)
	}
}

func TestTable2FromCampaign(t *testing.T) {
	res := testCampaign(t)
	t2 := res.Table2()
	if t2.TotalFailures == 0 {
		t.Fatal("no failures related")
	}
	// Every row with evidence sums to ~100.
	for _, f := range core.UserFailures() {
		sum := 0.0
		for _, src := range core.SysSources() {
			c := t2.Rows[f][src]
			sum += c.Local + c.NAP
		}
		if t2.RowEvidence[f] > 0 && math.Abs(sum-100) > 0.5 {
			t.Errorf("%v row sums to %v", f, sum)
		}
	}
	// TOT column sums to ~100.
	tot := 0.0
	for _, f := range core.UserFailures() {
		tot += t2.Tot[f]
	}
	if math.Abs(tot-100) > 0.5 {
		t.Errorf("TOT column sums to %v", tot)
	}
	// HCI must be the dominant source, as in the paper (49.9 %). A single
	// 36-hour campaign leaves several points of seed noise on the HCI/SDP
	// margin (the paper integrated 18 months), so dominance is asserted on
	// shares averaged over a few seeds — cheap now that a campaign day
	// simulates in well under a second.
	shares := map[core.SysSource]float64{}
	seeds := []uint64{1, 2, 3, 4}
	for _, seed := range seeds {
		r, err := RunCampaign(CampaignConfig{
			Seed: seed, Duration: 36 * Hour, Scenario: ScenarioSIRAs,
		})
		if err != nil {
			t.Fatal(err)
		}
		st2 := r.Table2()
		for _, src := range core.SysSources() {
			shares[src] += st2.SourceShare(src) / float64(len(seeds))
		}
	}
	hci := shares[core.SrcHCI]
	if hci < 30 {
		t.Errorf("mean HCI share %.1f%% far below the paper's 49.9%%", hci)
	}
	for _, src := range core.SysSources() {
		if src != core.SrcHCI && shares[src] > hci {
			t.Errorf("%v (%.1f%% mean) outweighs HCI (%.1f%% mean)", src, shares[src], hci)
		}
	}
}

func TestTable3FromCampaign(t *testing.T) {
	res := testCampaign(t)
	t3 := res.Table3()
	if len(t3.Counts) == 0 {
		t.Fatal("no recoveries")
	}
	sum := 0.0
	for _, v := range t3.TotalRow {
		sum += v
	}
	if math.Abs(sum-100) > 0.5 {
		t.Errorf("total row sums to %v", sum)
	}
}

func TestDependabilityFromCampaign(t *testing.T) {
	res := testCampaign(t)
	d := res.Dependability()
	if d.Failures == 0 {
		t.Fatal("no failures")
	}
	if d.MTTF <= 0 || d.MTTR <= 0 {
		t.Errorf("MTTF/MTTR = %v/%v", d.MTTF, d.MTTR)
	}
	if d.Availability <= 0 || d.Availability >= 1 {
		t.Errorf("availability = %v", d.Availability)
	}
	if d.MinTTF > d.MaxTTF || d.MinTTR > d.MaxTTR {
		t.Error("min/max inverted")
	}
}

func TestSensitivityCurveShape(t *testing.T) {
	res := testCampaign(t)
	curve, knee := res.SensitivityCurve()
	if curve.Len() == 0 {
		t.Fatal("empty curve")
	}
	if !curve.Decreasing() {
		t.Error("tuple-count curve must be non-increasing")
	}
	if knee <= 0 || knee > 1200 {
		t.Errorf("knee at %v s", knee)
	}
}

func TestFig3aOrdering(t *testing.T) {
	res := testCampaign(t)
	bars := res.Fig3a()
	if len(bars) != 6 {
		t.Fatalf("%d bars", len(bars))
	}
	share := map[string]float64{}
	for _, b := range bars {
		share[b.Label] = b.Share
	}
	// The headline finding at campaign scale: single-slot types lose far
	// more per byte than five-slot types. (The full per-type ordering,
	// including DMx > DHx, is asserted deterministically at high volume in
	// baseband's TestPerByteLossOrderingMatchesFigure3a; a short campaign
	// has too few losses in the rare binomial tails for per-type tests.)
	oneSlot := share["DM1"] + share["DH1"]
	fiveSlot := share["DM5"] + share["DH5"]
	if !(oneSlot > fiveSlot) {
		t.Errorf("1-slot share (%.2f) should exceed 5-slot share (%.2f): %v",
			oneSlot, fiveSlot, share)
	}
}

func TestFig4BindFailuresOnlyOnDefectHosts(t *testing.T) {
	res := testCampaign(t)
	for _, row := range res.Fig4() {
		bind := row.Shares[core.UFBindFailed]
		defect := row.Node == "Azzurro" || row.Node == "Win"
		if !defect && bind > 0 {
			t.Errorf("%s shows bind failures (%.1f%%) without the HAL defect", row.Node, bind)
		}
	}
}

func TestFixedExperiment(t *testing.T) {
	dur := 4 * Day
	if testing.Short() {
		dur = Day
	}
	res, err := RunFixedExperiment(FixedExperimentConfig{Seed: 5, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerNodeReports) != 2 {
		t.Fatalf("fixed experiment ran on %d nodes, want 2 (Verde, Win)", len(res.PerNodeReports))
	}
	losses := 0
	for _, r := range res.Reports() {
		if r.Failure == core.UFPacketLoss && !r.Masked {
			losses++
		}
	}
	if losses == 0 {
		t.Fatal("fixed experiment produced no packet losses")
	}
	bars := Fig3b(res, 1000, 10)
	// Infant mortality: the first bin dominates the last.
	if !(bars[0].Share > bars[len(bars)-1].Share) {
		t.Errorf("young bin %.1f%% should dominate old bin %.1f%%",
			bars[0].Share, bars[len(bars)-1].Share)
	}
	if _, err := RunFixedExperiment(FixedExperimentConfig{}); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestScalarsFromCampaign(t *testing.T) {
	res := testCampaign(t)
	s := res.Scalars()
	if s.RandomSharePct <= 50 {
		t.Errorf("random workload share %.1f%% — the random WL should dominate (paper: 84%%)",
			s.RandomSharePct)
	}
	if s.UserReports == 0 {
		t.Error("no user reports counted")
	}
}

func TestMaskedScenarioImprovesMTTF(t *testing.T) {
	base := testCampaign(t)
	masked, err := RunCampaign(CampaignConfig{
		Seed: 5, Duration: 36 * Hour, Scenario: ScenarioSIRAsMasking,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := base.Dependability()
	dm := masked.Dependability()
	if dm.MTTF <= db.MTTF {
		t.Errorf("masking should raise MTTF: %v -> %v", db.MTTF, dm.MTTF)
	}
	if dm.MaskingPct <= 0 {
		t.Error("masked campaign reports no masking")
	}
}
