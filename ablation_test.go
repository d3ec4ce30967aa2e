package btpan

// Ablation benchmarks: isolate the contribution of individual design
// choices the reproduction (and the paper) lean on — which masking strategy
// buys what, how the coalescence window moves Table 2's sharpness, and what
// FEC actually does under burst versus memoryless errors.
import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/baseband"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// BenchmarkAblationMaskingStrategies runs the masked scenario with each
// strategy disabled in turn, reporting how much of the masking each one
// carries (the paper only reports the combined 58 %).
func BenchmarkAblationMaskingStrategies(b *testing.B) {
	run := func(mutate func(*recovery.Masking)) (failures, masked int) {
		tb, err := testbed.New(testbed.Options{
			Name: "random", Seed: 21, Kind: core.WLRandom,
			Scenario: recovery.ScenarioSIRAsMasking,
			MutateWorkload: func(node string, cfg *workload.Config) {
				mutate(&cfg.Masking)
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		tb.Run(2 * Day)
		res := tb.Results()
		for _, c := range res.Counters {
			failures += c.TotalFailures()
			masked += c.TotalMasked()
		}
		return failures, masked
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fAll, mAll := run(func(m *recovery.Masking) {})
		fNoTransient, mNoTransient := run(func(m *recovery.Masking) { m.RetryTransient = false })
		fNoSDP, mNoSDP := run(func(m *recovery.Masking) { m.SDPBeforeConnect = false })
		fNoBind, mNoBind := run(func(m *recovery.Masking) { m.BindWait = false })
		if i == 0 {
			b.Logf("all strategies:        %4d failures, %4d masked", fAll, mAll)
			b.Logf("without RetryTransient: %4d failures, %4d masked (the bulk carrier)", fNoTransient, mNoTransient)
			b.Logf("without SDPBeforeConnect: %2d failures, %4d masked", fNoSDP, mNoSDP)
			b.Logf("without BindWait:      %4d failures, %4d masked", fNoBind, mNoBind)
		}
	}
}

// BenchmarkAblationCoalescenceWindow sweeps the evidence adjacency radius at
// the paper's 330 s tuple window, showing the truncation/collapse trade-off
// the paper's sensitivity analysis worries about: a tiny radius loses
// genuine evidence (truncation), a huge one attributes unrelated errors
// (collapse), diluting e.g. the PAN-connect<-SDP relationship.
func BenchmarkAblationCoalescenceWindow(b *testing.B) {
	res := benchCampaign(b)
	radii := []sim.Time{2 * sim.Second, coalesce.RelateRadius, 120 * sim.Second, coalesce.PaperWindow}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, radius := range radii {
			t2 := analysis.BuildTable2(res.EvidenceRadius(coalesce.PaperWindow, radius))
			if i == 0 {
				b.Logf("radius=%4ds: PAN<-SDP %5.1f%%  HCI total %5.1f%%  no-relationship(PAN) %4.1f%%",
					int(radius.Seconds()), t2.RowShare(core.UFPANConnectFailed, core.SrcSDP),
					t2.SourceShare(core.SrcHCI), t2.NoRelationship[core.UFPANConnectFailed])
			}
		}
	}
}

// BenchmarkAblationFECBurstChannel compares DM1 (FEC) vs DH1 (plain) loss
// rates under burst and memoryless channels of equal average BER: under
// bursts the Hamming code pays its airtime without protecting (the paper's
// Figure 3a mechanism); under memoryless errors it would help.
func BenchmarkAblationFECBurstChannel(b *testing.B) {
	world := sim.NewWorld(31)
	run := func(name string, cfg radio.Config) (dm1, dh1 float64) {
		arq := baseband.DefaultARQConfig()
		arq.CRCEscape = 0
		drops := map[core.PacketType]int{}
		const volume = 1 << 21
		for _, pt := range []core.PacketType{core.PTDM1, core.PTDH1} {
			link := radio.NewLink(cfg, world.RNG("ablation."+name+pt.String()))
			tx := baseband.NewTransmitter(arq, link, world.RNG("ablationtx."+name+pt.String()))
			sent := 0
			for sent < volume {
				res := tx.Send(pt, pt.Payload())
				sent += pt.Payload()
				if res.Outcome == baseband.Dropped {
					drops[pt]++
				}
			}
		}
		return float64(drops[core.PTDM1]) / (volume / 17.0) * 1e3,
			float64(drops[core.PTDH1]) / (volume / 27.0) * 1e3
	}

	burst := radio.DefaultConfig(0)
	burst.MeanGoodDur = 2 * sim.Second
	burst.MeanBadDur = 60 * sim.Millisecond
	burst.BERBad = 0.05
	burst.BERGood = 0
	burst.InterferencePerHour = 0
	// Memoryless channel with the same average BER.
	avgBER := 0.05 * float64(burst.MeanBadDur) / float64(burst.MeanBadDur+burst.MeanGoodDur)
	flat := burst
	flat.BERGood, flat.BERBad = avgBER, avgBER

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bdm, bdh := run("burst", burst)
		fdm, fdh := run("flat", flat)
		if i == 0 {
			b.Logf("burst channel:      DM1 %.2f drops/1k pkts vs DH1 %.2f — bursts defeat the 1-bit FEC; both types drop", bdm, bdh)
			b.Logf("memoryless channel: DM1 %.2f drops/1k pkts vs DH1 %.2f — same average BER, no bursts: the ARQ absorbs everything", fdm, fdh)
		}
	}
}

// BenchmarkAblationRedundantPiconets evaluates the paper's future-work
// recommendation: overlapped redundant piconets on top of SIRAs+masking.
func BenchmarkAblationRedundantPiconets(b *testing.B) {
	var dep *analysis.RedundantDeployment
	var err error
	for i := 0; i < b.N; i++ {
		dep, err = RedundantPiconets(41, 3*Day, 2*sim.Second)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("redundant 1-of-2 piconets:\n%s", dep.Render())
}

// BenchmarkAblationSDPGoodPractice quantifies the "always search before
// connecting" good practice alone: PAN-connect failures with the SDP flag
// false versus a workload that always searches.
func BenchmarkAblationSDPGoodPractice(b *testing.B) {
	run := func(alwaysSearch bool) int {
		tb, err := testbed.New(testbed.Options{
			Name: "random", Seed: 51, Kind: core.WLRandom,
			Scenario: recovery.ScenarioSIRAs,
			MutateWorkload: func(node string, cfg *workload.Config) {
				if alwaysSearch {
					cfg.FlagProb = 1 // SDP flag always true
				}
			},
			MutateHost: func(name string, cfg *stack.Config) {
				cfg.PAN.StaleCacheFailProb = 0.02 // amplify for a 2-day window
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		tb.Run(2 * Day)
		total := 0
		for _, c := range tb.Results().Counters {
			total += c.Failures[core.UFPANConnectFailed]
		}
		return total
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		withCache := run(false)
		always := run(true)
		if i == 0 {
			b.Logf("PAN connect failures: caching allowed %d vs always-search %d (paper: 96.5%% of PAN connect failures strike cached connects)",
				withCache, always)
		}
	}
}
