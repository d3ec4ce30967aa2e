package collector

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func sampleBatch() *Batch {
	return &Batch{
		Node:    "Verde",
		Testbed: "random",
		Reports: []core.UserReport{
			{At: sim.Second, Node: "Verde", Failure: core.UFPacketLoss, Workload: core.WLRandom},
		},
		Entries: []core.SystemEntry{
			{At: sim.Second, Node: "Verde", Source: core.SrcHCI, Code: core.CodeHCICommandTimeout},
		},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleBatch()
	if err := WriteBatch(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Node != in.Node || len(out.Reports) != 1 || len(out.Entries) != 1 {
		t.Errorf("round trip lost data: %+v", out)
	}
	if out.Reports[0] != in.Reports[0] || out.Entries[0] != in.Entries[0] {
		t.Error("record mismatch after round trip")
	}
	// Clean EOF between frames.
	if _, err := ReadBatch(&buf); err != io.EOF {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestReadBatchRejectsGarbage(t *testing.T) {
	// Implausible length prefix.
	if _, err := ReadBatch(strings.NewReader("\xff\xff\xff\xff....")); err == nil {
		t.Error("giant frame accepted")
	}
	// Truncated body.
	if _, err := ReadBatch(strings.NewReader("\x00\x00\x00\x10abc")); err == nil {
		t.Error("truncated frame accepted")
	}
	// Valid length, invalid JSON.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("{{{")
	if _, err := ReadBatch(&buf); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestFilterSystemDedup(t *testing.T) {
	f := Filter{DedupWindow: 2 * sim.Second}
	mk := func(at sim.Time, code core.ErrorCode) core.SystemEntry {
		return core.SystemEntry{At: at, Node: "Verde", Source: code.Source(), Code: code}
	}
	in := []core.SystemEntry{
		mk(0, core.CodeHCICommandTimeout),
		mk(sim.Second, core.CodeHCICommandTimeout),    // dup, within window
		mk(1500*sim.Millisecond, core.CodeSDPTimeout), // different code
		mk(5*sim.Second, core.CodeHCICommandTimeout),  // past window of the last dup? (window slides)
	}
	out := f.FilterSystem(in)
	if len(out) != 3 {
		t.Fatalf("filtered to %d entries, want 3: %+v", len(out), out)
	}
	// Disabled filter passes everything.
	if got := (Filter{}).FilterSystem(in); len(got) != len(in) {
		t.Error("zero window should disable dedup")
	}
}

func TestFilterSlidingWindowSuppressesThrash(t *testing.T) {
	f := Filter{DedupWindow: 2 * sim.Second}
	var in []core.SystemEntry
	// 100 identical entries 1 s apart: the window slides, so only the
	// first survives — that is the thrash-collapse behaviour.
	for i := 0; i < 100; i++ {
		in = append(in, core.SystemEntry{At: sim.Time(i) * sim.Second,
			Node: "Verde", Source: core.SrcUSB, Code: core.CodeUSBAddressStall})
	}
	out := f.FilterSystem(in)
	if len(out) != 1 {
		t.Errorf("thrash collapsed to %d entries, want 1", len(out))
	}
}
