package analysis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestBuildEvidenceAndTable2(t *testing.T) {
	// Two connect failures on Verde: one explained by a local HCI timeout,
	// one by an HCI timeout on the NAP. One inquiry failure with no
	// evidence at all.
	reports := map[string][]core.UserReport{
		"Verde": {
			{At: 100 * sim.Second, Node: "Verde", Failure: core.UFConnectFailed},
			{At: 5000 * sim.Second, Node: "Verde", Failure: core.UFConnectFailed},
			{At: 20000 * sim.Second, Node: "Verde", Failure: core.UFInquiryScanFailed},
		},
	}
	entries := map[string][]core.SystemEntry{
		"Verde": {
			{At: 95 * sim.Second, Node: "Verde", Source: core.SrcHCI, Code: core.CodeHCICommandTimeout},
		},
		"Giallo": {
			{At: 5010 * sim.Second, Node: "Giallo", Source: core.SrcHCI, Code: core.CodeHCICommandTimeout},
		},
	}
	ev := coalesce.NewEvidence()
	BuildEvidenceWithRadius(ev, reports, entries, "Giallo", coalesce.PaperWindow, coalesce.RelateRadius)
	table := BuildTable2(ev)

	if table.TotalFailures != 3 {
		t.Fatalf("TotalFailures = %d", table.TotalFailures)
	}
	cell := table.Rows[core.UFConnectFailed][core.SrcHCI]
	if math.Abs(cell.Local-50) > 1e-9 || math.Abs(cell.NAP-50) > 1e-9 {
		t.Errorf("connect HCI cell = %+v, want 50/50", cell)
	}
	if got := table.RowShare(core.UFConnectFailed, core.SrcHCI); math.Abs(got-100) > 1e-9 {
		t.Errorf("RowShare = %v", got)
	}
	if got := table.SourceShare(core.SrcHCI); math.Abs(got-100) > 1e-9 {
		t.Errorf("SourceShare = %v (all evidence is HCI)", got)
	}
	if got := table.NoRelationship[core.UFInquiryScanFailed]; math.Abs(got-100) > 1e-9 {
		t.Errorf("inquiry NoRelationship = %v, want 100", got)
	}
	// TOT column: 2/3 connect, 1/3 inquiry.
	if got := table.Tot[core.UFConnectFailed]; math.Abs(got-200.0/3) > 1e-6 {
		t.Errorf("Tot[connect] = %v", got)
	}
	if out := table.Render(); !strings.Contains(out, "Connect failed") {
		t.Error("render missing rows")
	}
}

func TestTable2RowsSumTo100(t *testing.T) {
	// Synthetic evidence with several sources: each row's local+NAP cells
	// must sum to 100 when any evidence exists.
	ev := coalesce.NewEvidence()
	add := func(f core.UserFailure, src core.SysSource, loc coalesce.Locality, n int) {
		ev.Counts[coalesce.EvidenceKey{Failure: f, Source: src, Locality: loc}] += n
		ev.FailureTotals[f] += n
		ev.TotalFailures += n
	}
	add(core.UFPacketLoss, core.SrcHCI, coalesce.Local, 3)
	add(core.UFPacketLoss, core.SrcBCSP, coalesce.Local, 5)
	add(core.UFPacketLoss, core.SrcL2CAP, coalesce.NAP, 2)
	table := BuildTable2(ev)
	sum := 0.0
	for _, src := range core.SysSources() {
		c := table.Rows[core.UFPacketLoss][src]
		sum += c.Local + c.NAP
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("row sums to %v", sum)
	}
}

func TestBuildTable3(t *testing.T) {
	var reports []core.UserReport
	mk := func(f core.UserFailure, a core.RecoveryAction, n int) {
		for i := 0; i < n; i++ {
			reports = append(reports, core.UserReport{
				Failure: f, Recovered: true, Recovery: a})
		}
	}
	mk(core.UFNAPNotFound, core.RABTStackReset, 61)
	mk(core.UFNAPNotFound, core.RASystemReboot, 31)
	mk(core.UFNAPNotFound, core.RAAppRestart, 8)
	// Unrecovered and masked reports must be ignored.
	reports = append(reports,
		core.UserReport{Failure: core.UFNAPNotFound},
		core.UserReport{Failure: core.UFNAPNotFound, Masked: true, Recovered: true, Recovery: core.RAAppRestart})

	table := BuildTable3(reports)
	if table.Counts[core.UFNAPNotFound] != 100 {
		t.Fatalf("count = %d", table.Counts[core.UFNAPNotFound])
	}
	if got := table.Share(core.UFNAPNotFound, core.RABTStackReset); math.Abs(got-61) > 1e-9 {
		t.Errorf("stack-reset share = %v", got)
	}
	if got := table.ExpensiveShare(core.UFNAPNotFound); math.Abs(got-39) > 1e-9 {
		t.Errorf("expensive share = %v", got)
	}
	sev := table.MeanSeverity(core.UFNAPNotFound)
	want := (61*3 + 31*6 + 8*4) / 100.0
	if math.Abs(sev-want) > 1e-9 {
		t.Errorf("mean severity = %v, want %v", sev, want)
	}
	row := table.Rows[core.UFNAPNotFound]
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("row sums to %v", sum)
	}
	if out := table.Render(); !strings.Contains(out, "no recovery defined") {
		t.Error("data mismatch row missing")
	}
}

func TestBuildDependability(t *testing.T) {
	// Failures at 100s, 400s, 1000s: TTFs 100, 300, 600.
	reports := []core.UserReport{
		{At: 100 * sim.Second, Failure: core.UFPacketLoss, Recovered: true,
			Recovery: core.RABTConnectionReset, TTR: 4 * sim.Second},
		{At: 400 * sim.Second, Failure: core.UFConnectFailed, Recovered: true,
			Recovery: core.RAAppRestart, TTR: 10 * sim.Second},
		{At: 1000 * sim.Second, Failure: core.UFPacketLoss, Recovered: true,
			Recovery: core.RAIPSocketReset, TTR: 1 * sim.Second},
		{At: 500 * sim.Second, Failure: core.UFBindFailed, Masked: true},
	}
	d := BuildDependability("test", reports, 2000*sim.Second)
	if d.Failures != 3 || d.Masked != 1 {
		t.Fatalf("failures/masked = %d/%d", d.Failures, d.Masked)
	}
	wantMTTF := (100.0 + 300 + 600) / 3
	if math.Abs(d.MTTF-wantMTTF) > 1e-9 {
		t.Errorf("MTTF = %v, want %v", d.MTTF, wantMTTF)
	}
	wantMTTR := (4.0 + 10 + 1) / 3
	if math.Abs(d.MTTR-wantMTTR) > 1e-9 {
		t.Errorf("MTTR = %v, want %v", d.MTTR, wantMTTR)
	}
	wantAvail := wantMTTF / (wantMTTF + wantMTTR)
	if math.Abs(d.Availability-wantAvail) > 1e-9 {
		t.Errorf("availability = %v, want %v", d.Availability, wantAvail)
	}
	// Coverage: 2 of 4 (incl. masked) cleared without restart/reboot, plus
	// the masked one: (1 masked + 2 covered) / 4.
	wantCov := 25.0 + 50.0
	if math.Abs(d.CoveragePct-wantCov) > 1e-9 {
		t.Errorf("coverage = %v, want %v", d.CoveragePct, wantCov)
	}
	if math.Abs(d.MaskingPct-25) > 1e-9 {
		t.Errorf("masking = %v, want 25", d.MaskingPct)
	}
	if d.MinTTF != 100 || d.MaxTTF != 600 {
		t.Errorf("TTF bounds = %v/%v", d.MinTTF, d.MaxTTF)
	}
}

func TestTable4Improvement(t *testing.T) {
	t4 := &Table4{Columns: []*Dependability{
		{Scenario: "Only Reboot", Availability: 0.688, MTTF: 630.56},
		{Scenario: "App restart and Reboot", Availability: 0.907, MTTF: 631},
		{Scenario: "With only SIRAs", Availability: 0.923, MTTF: 633},
		{Scenario: "SIRAs and masking", Availability: 0.94, MTTF: 1905.05},
	}}
	vsReboot, vsAppReboot, mttfGain := t4.Improvement()
	if math.Abs(vsReboot-36.6) > 0.3 {
		t.Errorf("availability vs reboot = %v, want ~36.6", vsReboot)
	}
	if math.Abs(vsAppReboot-3.64) > 0.1 {
		t.Errorf("availability vs app+reboot = %v, want ~3.64", vsAppReboot)
	}
	if math.Abs(mttfGain-202) > 2 {
		t.Errorf("MTTF gain = %v, want ~202", mttfGain)
	}
	if out := t4.Render(); !strings.Contains(out, "Availability") {
		t.Error("render incomplete")
	}
}

func TestFig3aPacketType(t *testing.T) {
	c := workload.NewCounters()
	// Equal byte volumes per type, losses decreasing with capacity.
	losses := map[core.PacketType]int64{
		core.PTDM1: 60, core.PTDH1: 40, core.PTDM3: 20,
		core.PTDH3: 12, core.PTDM5: 8, core.PTDH5: 4,
	}
	for _, pt := range core.PacketTypes() {
		c.PacketsByType[pt] = 1 << 20 / int64(pt.Payload())
		c.LossesByType[pt] = losses[pt]
	}
	bars := Fig3aPacketType(map[string]*workload.Counters{"Verde": c})
	if len(bars) != 6 {
		t.Fatalf("%d bars", len(bars))
	}
	sum := 0.0
	for i := 1; i < len(bars); i++ {
		if bars[i].Share > bars[i-1].Share {
			t.Errorf("shares not decreasing: %+v", bars)
		}
	}
	for _, b := range bars {
		sum += b.Share
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestFig3bConnectionAge(t *testing.T) {
	var reports []core.UserReport
	// Heavy infant mortality: most losses in the first bin.
	for i := 0; i < 80; i++ {
		reports = append(reports, core.UserReport{Failure: core.UFPacketLoss, SentPkts: i % 500})
	}
	for i := 0; i < 20; i++ {
		reports = append(reports, core.UserReport{Failure: core.UFPacketLoss, SentPkts: 2000 + i*100})
	}
	// Noise that must be excluded.
	reports = append(reports, core.UserReport{Failure: core.UFConnectFailed, SentPkts: 1})
	reports = append(reports, core.UserReport{Failure: core.UFPacketLoss, SentPkts: 1, Masked: true})

	bars := Fig3bConnectionAge(reports, 500, 10)
	if len(bars) != 10 {
		t.Fatalf("%d bins", len(bars))
	}
	if bars[0].Share <= bars[9].Share {
		t.Errorf("young-connection bin (%v) should dominate the tail (%v)",
			bars[0].Share, bars[9].Share)
	}
}

func TestFig3cApplications(t *testing.T) {
	var reports []core.UserReport
	add := func(app core.AppKind, n int) {
		for i := 0; i < n; i++ {
			reports = append(reports, core.UserReport{Failure: core.UFPacketLoss, App: app})
		}
	}
	add(core.AppP2P, 45)
	add(core.AppStreaming, 25)
	add(core.AppWeb, 15)
	add(core.AppFTP, 10)
	add(core.AppMail, 5)
	bars := Fig3cApplications(reports)
	shares := map[string]float64{}
	for _, b := range bars {
		shares[b.Label] = b.Share
	}
	if shares["P2P"] != 45 || shares["Mail"] != 5 {
		t.Errorf("shares = %v", shares)
	}
}

func TestFig4PerHost(t *testing.T) {
	reports := []core.UserReport{
		{Node: "Azzurro", Failure: core.UFBindFailed},
		{Node: "Azzurro", Failure: core.UFConnectFailed},
		{Node: "Verde", Failure: core.UFPacketLoss},
		{Node: "Verde", Failure: core.UFPacketLoss},
		{Node: "Verde", Failure: core.UFBindFailed, Masked: true},
	}
	rows := Fig4PerHost(reports)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Node != "Azzurro" || rows[0].Shares[core.UFBindFailed] != 50 {
		t.Errorf("Azzurro row = %+v", rows[0])
	}
	if rows[1].Shares[core.UFPacketLoss] != 100 {
		t.Errorf("Verde row = %+v (masked must not count)", rows[1])
	}
	if out := RenderFig4(rows); !strings.Contains(out, "Azzurro") {
		t.Error("render missing host")
	}
}

func TestBuildScalars(t *testing.T) {
	random := make([]core.UserReport, 84)
	for i := range random {
		random[i] = core.UserReport{Failure: core.UFPacketLoss, DistanceM: 0.5}
	}
	realistic := make([]core.UserReport, 16)
	for i := range realistic {
		d := []float64{0.5, 5, 7}[i%3]
		realistic[i] = core.UserReport{Failure: core.UFPacketLoss, DistanceM: d}
	}
	// Bind failures excluded from the distance split.
	realistic = append(realistic, core.UserReport{Failure: core.UFBindFailed, DistanceM: 5})

	c := workload.NewCounters()
	c.IdleBeforeFailed.Add(27.3)
	c.IdleBeforeClean.Add(26.9)

	s := BuildScalars(random, realistic, map[string]*workload.Counters{"Verde": c}, 1234)
	if math.Abs(s.RandomSharePct-84.0/1.01) > 1.0 {
		t.Errorf("random share = %v", s.RandomSharePct)
	}
	if s.IdleBeforeFailedMean != 27.3 || s.IdleBeforeCleanMean != 26.9 {
		t.Errorf("idle means = %v/%v", s.IdleBeforeFailedMean, s.IdleBeforeCleanMean)
	}
	total := 0.0
	for _, share := range s.DistanceShares {
		total += share
	}
	if math.Abs(total-100) > 1e-6 {
		t.Errorf("distance shares sum to %v", total)
	}
	if s.SystemEntries != 1234 {
		t.Errorf("system entries = %d", s.SystemEntries)
	}
}

func TestRenderBars(t *testing.T) {
	out := RenderBars("Figure", []Bar{{"DM1", 60}, {"DH5", 5}}, 20)
	if !strings.Contains(out, "DM1") || !strings.Contains(out, "#") {
		t.Errorf("render = %q", out)
	}
	_ = stats.Normalize // keep the stats dependency explicit
}
