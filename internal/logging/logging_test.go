package logging

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func sampleReports() []core.UserReport {
	return []core.UserReport{
		{At: 3 * sim.Second, Testbed: "random", Node: "Verde", Failure: core.UFPacketLoss,
			Workload: core.WLRandom, Packet: core.PTDM1, ConnID: 1},
		{At: sim.Second, Testbed: "random", Node: "Win", Failure: core.UFBindFailed,
			Workload: core.WLRandom, ConnID: 2},
		{At: sim.Second, Testbed: "random", Node: "Azzurro", Failure: core.UFConnectFailed,
			Workload: core.WLRandom, ConnID: 3},
	}
}

func sampleEntries() []core.SystemEntry {
	return []core.SystemEntry{
		{At: 2 * sim.Second, Testbed: "random", Node: "Verde",
			Source: core.SrcHCI, Code: core.CodeHCICommandTimeout},
		{At: sim.Second, Testbed: "random", Node: "Giallo",
			Source: core.SrcSDP, Code: core.CodeSDPTimeout},
	}
}

func TestTestLogAppendSnapshotDrain(t *testing.T) {
	l := NewTestLog()
	for _, r := range sampleReports() {
		l.Append(r)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
	snap := l.Snapshot()
	if len(snap) != 3 || l.Len() != 3 {
		t.Error("snapshot should not drain")
	}
	// Mutating the snapshot must not touch the log.
	snap[0].Node = "corrupted"
	if l.Snapshot()[0].Node == "corrupted" {
		t.Error("snapshot aliases log storage")
	}
	// A keeping drain hands out each record once and leaves it in place.
	if got := l.Drain(true); len(got) != 3 || l.Len() != 3 {
		t.Errorf("keeping drain returned %d records, left %d; want 3 and 3", len(got), l.Len())
	}
	r := sampleReports()[0]
	l.Append(r)
	l.Append(r)
	tail := l.Drain(true)
	if len(tail) != 2 || tail[0] != r || l.Len() != 5 {
		t.Fatalf("second keeping drain returned %+v, left %d; want the two new records and 5", tail, l.Len())
	}
	// Appending to a drained slice must not write into the log, even where
	// the log's buffer has room past the slice.
	l.Append(r)
	_ = append(tail, core.UserReport{Node: "corrupted"})
	if l.Snapshot()[5].Node == "corrupted" {
		t.Error("drained slice aliases log storage")
	}
	if got := l.Drain(false); len(got) != 1 || l.Len() != 0 {
		t.Errorf("forgetting drain returned %d records, left %d; want the 1 undrained and 0", len(got), l.Len())
	}
}

func TestSystemLogAppendSnapshotDrain(t *testing.T) {
	l := NewSystemLog("Giallo")
	for _, e := range sampleEntries() {
		l.Append(e)
	}
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if len(l.Snapshot()) != 2 {
		t.Error("snapshot size")
	}
	if got := l.Drain(false); len(got) != 2 || l.Len() != 0 {
		t.Error("drain should empty the log")
	}
}

func TestSinkStampsEntries(t *testing.T) {
	l := NewSystemLog("Ipaq")
	now := 42 * sim.Second
	conn := uint64(7)
	sink := l.Sink("realistic", func() sim.Time { return now }, func() uint64 { return conn })
	sink(core.CodeBCSPOutOfOrder, "bcsp.deliver")
	entries := l.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	e := entries[0]
	if e.At != now || e.Node != "Ipaq" || e.Testbed != "realistic" ||
		e.Source != core.SrcBCSP || e.Code != core.CodeBCSPOutOfOrder || e.ConnID != 7 {
		t.Errorf("entry = %+v", e)
	}
	if !strings.Contains(e.Detail, "bcsp.deliver") {
		t.Errorf("detail %q should carry the op", e.Detail)
	}
}

func TestUserReportsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleReports()
	if err := WriteUserReports(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadUserReports(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d reports", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("report %d mismatch", i)
		}
	}
}

func TestSystemEntriesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleEntries()
	if err := WriteSystemEntries(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSystemEntries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d entries", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d mismatch", i)
		}
	}
}

func TestReadUserReportsRejectsGarbage(t *testing.T) {
	if _, err := ReadUserReports(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadEmpty(t *testing.T) {
	if out, err := ReadUserReports(strings.NewReader("")); err != nil || len(out) != 0 {
		t.Errorf("empty read: %v, %v", out, err)
	}
	if out, err := ReadSystemEntries(strings.NewReader("")); err != nil || len(out) != 0 {
		t.Errorf("empty read: %v, %v", out, err)
	}
}

func TestSortUserReports(t *testing.T) {
	rs := sampleReports()
	SortUserReports(rs)
	if rs[0].Node != "Azzurro" || rs[1].Node != "Win" || rs[2].Node != "Verde" {
		t.Errorf("order = %s, %s, %s", rs[0].Node, rs[1].Node, rs[2].Node)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].At < rs[i-1].At {
			t.Fatal("not time ordered")
		}
	}
}

func TestSortSystemEntries(t *testing.T) {
	es := sampleEntries()
	SortSystemEntries(es)
	if es[0].Node != "Giallo" {
		t.Errorf("order wrong: %s first", es[0].Node)
	}
}
