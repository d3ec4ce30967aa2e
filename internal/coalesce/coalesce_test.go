package coalesce

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

func userEvent(at sim.Time, node string, f core.UserFailure) core.UserReport {
	return core.UserReport{At: at, Node: node, Failure: f}
}

func sysEvent(at sim.Time, node string, code core.ErrorCode) core.SystemEntry {
	return core.SystemEntry{At: at, Node: node, Source: code.Source(), Code: code}
}

func TestMergeOrdersAndFilters(t *testing.T) {
	reports := []core.UserReport{
		userEvent(30*sim.Second, "Verde", core.UFConnectFailed),
		{At: 10 * sim.Second, Node: "Verde", Failure: core.UFBindFailed, Masked: true},
	}
	sysA := []core.SystemEntry{sysEvent(20*sim.Second, "Verde", core.CodeHCICommandTimeout)}
	sysB := []core.SystemEntry{sysEvent(5*sim.Second, "Giallo", core.CodeSDPTimeout)}
	events := Merge(reports, sysA, sysB)
	if len(events) != 3 {
		t.Fatalf("merged %d events, want 3 (masked excluded)", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatal("merge not time ordered")
		}
	}
	if events[0].Node != "Giallo" || events[2].IsUser != true {
		t.Errorf("unexpected order: %+v", events)
	}
}

func TestTuplesGapCriterion(t *testing.T) {
	var events []Event
	// Cluster 1: 0s, 10s, 25s (gaps 10, 15). Cluster 2: 100s.
	for _, at := range []sim.Time{0, 10 * sim.Second, 25 * sim.Second, 100 * sim.Second} {
		events = append(events, Event{At: at, Node: "Verde",
			Sys: sysEvent(at, "Verde", core.CodeHCICommandTimeout)})
	}
	tuples := Tuples(events, 20*sim.Second)
	if len(tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(tuples))
	}
	if len(tuples[0].Events) != 3 || len(tuples[1].Events) != 1 {
		t.Errorf("tuple sizes %d/%d, want 3/1", len(tuples[0].Events), len(tuples[1].Events))
	}
	if tuples[0].Start != 0 || tuples[0].End != 25*sim.Second {
		t.Errorf("tuple bounds [%v,%v]", tuples[0].Start, tuples[0].End)
	}
}

func TestTuplesPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	Tuples(nil, 0)
}

func TestTupleCountMonotoneInWindow(t *testing.T) {
	// Property: widening the window can only merge tuples, never split.
	prop := func(gaps []uint16) bool {
		var events []Event
		at := sim.Time(0)
		for _, g := range gaps {
			at += sim.Time(g) * sim.Millisecond
			events = append(events, Event{At: at,
				Sys: sysEvent(at, "Verde", core.CodeHCICommandTimeout)})
		}
		prev := -1
		for _, w := range []sim.Time{sim.Second, 5 * sim.Second, 30 * sim.Second} {
			n := len(Tuples(events, w))
			if prev >= 0 && n > prev {
				return false
			}
			prev = n
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSensitivityCurveShapeAndKnee(t *testing.T) {
	// Synthesise bursts of related events separated by long quiet gaps:
	// intra-burst gaps up to ~300s, inter-burst gaps ~2000s. The knee of
	// the tuple-count curve should then sit near the intra-burst spacing,
	// which is how the paper's 330 s arises.
	var events []Event
	at := sim.Time(0)
	for burst := 0; burst < 200; burst++ {
		n := 3 + burst%4
		for i := 0; i < n; i++ {
			events = append(events, Event{At: at,
				Sys: sysEvent(at, "Verde", core.CodeHCICommandTimeout)})
			at += sim.Time(40+(burst*7+i*13)%260) * sim.Second
		}
		at += 2000 * sim.Second
	}
	curve := Sensitivity(events, DefaultWindows())
	if !curve.Decreasing() {
		t.Fatal("tuple-count curve must be non-increasing in the window")
	}
	knee, _ := curve.Knee()
	if knee < 100 || knee > 600 {
		t.Errorf("knee at %v s, want in the few-hundred-seconds regime", knee)
	}
}

func TestSensitivityEmpty(t *testing.T) {
	curve := Sensitivity(nil, DefaultWindows())
	if curve.Len() != 0 {
		t.Error("empty events should give an empty curve")
	}
}

func TestRelateCountsEvidence(t *testing.T) {
	reports := []core.UserReport{
		userEvent(100*sim.Second, "Verde", core.UFConnectFailed),
		userEvent(5000*sim.Second, "Verde", core.UFInquiryScanFailed),
	}
	sys := []core.SystemEntry{
		sysEvent(90*sim.Second, "Verde", core.CodeHCICommandTimeout),
		sysEvent(110*sim.Second, "Giallo", core.CodeHCICommandTimeout),
		// Unrelated, far away in time.
		sysEvent(9000*sim.Second, "Verde", core.CodeBCSPOutOfOrder),
	}
	events := Merge(reports, sys)
	tuples := Tuples(events, PaperWindow)
	ev := NewEvidence()
	RelateWithRadius(ev, tuples, "Giallo", RelateRadius)

	if ev.TotalFailures != 2 {
		t.Fatalf("TotalFailures = %d", ev.TotalFailures)
	}
	localKey := EvidenceKey{Failure: core.UFConnectFailed, Source: core.SrcHCI, Locality: Local}
	napKey := EvidenceKey{Failure: core.UFConnectFailed, Source: core.SrcHCI, Locality: NAP}
	if ev.Counts[localKey] != 1 || ev.Counts[napKey] != 1 {
		t.Errorf("connect evidence = local %d / NAP %d, want 1/1",
			ev.Counts[localKey], ev.Counts[napKey])
	}
	if ev.NoRelationship[core.UFInquiryScanFailed] != 1 {
		t.Errorf("inquiry should have no relationship: %v", ev.NoRelationship)
	}
	if ev.RowTotal(core.UFConnectFailed) != 2 {
		t.Errorf("RowTotal = %d", ev.RowTotal(core.UFConnectFailed))
	}
	if ev.RowTotal(core.UFInquiryScanFailed) != 0 {
		t.Errorf("inquiry RowTotal = %d", ev.RowTotal(core.UFInquiryScanFailed))
	}
}

func TestRelateAccumulatesAcrossCalls(t *testing.T) {
	ev := NewEvidence()
	for i := 0; i < 3; i++ {
		reports := []core.UserReport{userEvent(sim.Time(i)*sim.Hour, "Miseno", core.UFPacketLoss)}
		sys := []core.SystemEntry{sysEvent(sim.Time(i)*sim.Hour+sim.Second, "Miseno", core.CodeBCSPMissing)}
		RelateWithRadius(ev, Tuples(Merge(reports, sys), PaperWindow), "Giallo", RelateRadius)
	}
	key := EvidenceKey{Failure: core.UFPacketLoss, Source: core.SrcBCSP, Locality: Local}
	if ev.Counts[key] != 3 {
		t.Errorf("accumulated evidence = %d, want 3", ev.Counts[key])
	}
	if ev.FailureTotals[core.UFPacketLoss] != 3 {
		t.Errorf("failure totals = %v", ev.FailureTotals)
	}
}

func TestTupleUserFailures(t *testing.T) {
	tu := Tuple{Events: []Event{
		{IsUser: true, User: userEvent(0, "Verde", core.UFBindFailed)},
		{Sys: sysEvent(0, "Verde", core.CodeHotplugTimeout)},
		{IsUser: true, User: userEvent(0, "Verde", core.UFPacketLoss)},
	}}
	fs := tu.UserFailures()
	if len(fs) != 2 || fs[0] != core.UFBindFailed || fs[1] != core.UFPacketLoss {
		t.Errorf("UserFailures = %v", fs)
	}
}

func TestPaperWindowIs330Seconds(t *testing.T) {
	if PaperWindow != 330*sim.Second {
		t.Errorf("paper window = %v", PaperWindow)
	}
}
