package testbed

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stack"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := New(Options{Name: "x"}); err == nil {
		t.Error("missing workload kind accepted")
	}
	if _, err := New(Options{Name: "x", Kind: core.WLRandom,
		Nodes: []string{"nonexistent"}}); err == nil {
		t.Error("empty PANU selection accepted")
	}
}

func TestTestbedShape(t *testing.T) {
	tb, err := New(Options{Name: "random", Seed: 1, Kind: core.WLRandom,
		Scenario: recovery.ScenarioSIRAs})
	if err != nil {
		t.Fatal(err)
	}
	if tb.NAP == nil || tb.NAP.Node != "Giallo" {
		t.Error("NAP missing")
	}
	if len(tb.PANUs) != 6 || len(tb.Clients) != 6 {
		t.Errorf("PANUs/clients = %d/%d, want 6/6", len(tb.PANUs), len(tb.Clients))
	}
	if len(tb.SysLogs) != 7 {
		t.Errorf("system logs = %d, want 7 (all nodes)", len(tb.SysLogs))
	}
	if len(tb.TestLogs) != 6 {
		t.Errorf("test logs = %d, want 6 (PANUs only)", len(tb.TestLogs))
	}
}

func TestNodeSubset(t *testing.T) {
	tb, err := New(Options{Name: "fixed", Seed: 2, Kind: core.WLFixed,
		Scenario: recovery.ScenarioSIRAs, Nodes: []string{"Verde", "Win"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.PANUs) != 2 {
		t.Fatalf("PANUs = %d, want 2", len(tb.PANUs))
	}
	names := map[string]bool{}
	for _, h := range tb.PANUs {
		names[h.Node] = true
	}
	if !names["Verde"] || !names["Win"] {
		t.Errorf("wrong nodes: %v", names)
	}
}

func TestShortCampaignProducesData(t *testing.T) {
	tb, err := New(Options{Name: "random", Seed: 3, Kind: core.WLRandom,
		Scenario: recovery.ScenarioSIRAs})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(6 * sim.Hour)
	res := tb.Results()
	if res.Duration < 6*sim.Hour {
		t.Errorf("duration = %v", res.Duration)
	}
	totalCycles := 0
	for _, c := range res.Counters {
		totalCycles += c.Cycles
	}
	if totalCycles < 500 {
		t.Errorf("only %d cycles across 6 nodes in 6 virtual hours", totalCycles)
	}
	if len(res.Reports()) == 0 {
		t.Error("no user reports with calibrated fault rates")
	}
	if len(res.Entries()) == 0 {
		t.Error("no system entries")
	}
	// Reports must be time-sorted and carry the testbed name.
	reports := res.Reports()
	for i, r := range reports {
		if r.Testbed != "random" {
			t.Fatalf("report %d has testbed %q", i, r.Testbed)
		}
		if i > 0 && r.At < reports[i-1].At {
			t.Fatal("reports not sorted")
		}
	}
}

func TestMutateHostHook(t *testing.T) {
	seen := map[string]bool{}
	_, err := New(Options{Name: "random", Seed: 4, Kind: core.WLRandom,
		Scenario: recovery.ScenarioSIRAs,
		MutateHost: func(name string, cfg *stack.Config) {
			seen[name] = true
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 7 {
		t.Errorf("mutate hook saw %d hosts, want 7", len(seen))
	}
}

func TestHardwareReplacementReboots(t *testing.T) {
	tb, err := New(Options{Name: "random", Seed: 5, Kind: core.WLRandom,
		Scenario: recovery.ScenarioSIRAs, ReplaceHardwareAt: sim.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * sim.Hour)
	for _, h := range tb.PANUs {
		if h.Reboots() == 0 {
			t.Errorf("%s never rebooted for hardware replacement", h.Node)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	run := func() (int, int) {
		c, err := NewCampaign(42, recovery.ScenarioSIRAs, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := analysis.NewStreamer(c.StreamSpec())
		if err != nil {
			t.Fatal(err)
		}
		c.KeepRecords = true
		randRes, realRes := c.RunStreaming(3*sim.Hour, sim.Hour, s)
		return len(randRes.Reports()), len(realRes.Reports())
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Errorf("campaign not deterministic: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

// TestTransferKernelEngages shows the run-length transfer kernel carries
// the workload: on a default random-workload day, at least 90 % of the
// packets resolve inside clean runs, without the per-packet path.
func TestTransferKernelEngages(t *testing.T) {
	random, _ := CampaignOptions(1, recovery.ScenarioSIRAs, sim.Day)
	tb, err := New(random)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(sim.Day)
	var packets, clean int64
	for _, c := range tb.Results().Counters {
		for _, n := range c.PacketsByType {
			packets += n
		}
	}
	for _, h := range tb.PANUs {
		clean += h.CleanPackets()
	}
	if packets == 0 || float64(clean) < 0.9*float64(packets) {
		t.Fatalf("%d of %d packets resolved in clean runs, want at least 90 %%", clean, packets)
	}
	t.Logf("%d of %d packets (%.2f %%) resolved in clean runs", clean, packets, 100*float64(clean)/float64(packets))
}
