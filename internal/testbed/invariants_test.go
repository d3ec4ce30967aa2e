package testbed

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pan"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// TestNAPSlaveBoundInvariant runs a busy campaign and checks the piconet
// never admits more than seven active slaves (the Bluetooth bound the PAN
// profile's role switch exists to preserve).
func TestNAPSlaveBoundInvariant(t *testing.T) {
	tb, err := New(Options{Name: "random", Seed: 61, Kind: core.WLRandom,
		Scenario: recovery.ScenarioSIRAs})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range tb.Clients {
		c.Start()
	}
	probes, violations := 0, 0
	var probe func()
	probe = func() {
		probes++
		if tb.NAP.NAP.ActiveSlaves() > pan.MaxSlaves {
			violations++
		}
		tb.World.ScheduleAfter(10*sim.Second, probe)
	}
	tb.World.ScheduleAfter(10*sim.Second, probe)
	tb.World.RunUntil(6 * sim.Hour)
	if probes != 6*360 {
		t.Errorf("probed %d times, want %d", probes, 6*360)
	}
	if violations > 0 {
		t.Errorf("slave bound violated %d times", violations)
	}
}

// TestScenarioFailureStreamsDiffer checks the four recovery regimes produce
// genuinely different recovery profiles over the same fault processes.
func TestScenarioFailureStreamsDiffer(t *testing.T) {
	recoveries := map[recovery.Scenario]map[core.RecoveryAction]int{}
	for _, sc := range recovery.Scenarios() {
		tb, err := New(Options{Name: "random", Seed: 62, Kind: core.WLRandom, Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		tb.Run(12 * sim.Hour)
		actions := map[core.RecoveryAction]int{}
		for _, r := range tb.Results().Reports() {
			if r.Recovered {
				actions[r.Recovery]++
			}
		}
		recoveries[sc] = actions
	}
	// Reboot-only must never use the cheap SIRAs.
	for a := core.RAIPSocketReset; a <= core.RAMultiAppRestart; a++ {
		if recoveries[recovery.ScenarioRebootOnly][a] > 0 {
			t.Errorf("reboot-only scenario used %v", a)
		}
	}
	// The SIRA cascade must use the cheap actions.
	cheap := 0
	for a := core.RAIPSocketReset; a <= core.RABTStackReset; a++ {
		cheap += recoveries[recovery.ScenarioSIRAs][a]
	}
	if cheap == 0 {
		t.Error("SIRA scenario never used a cheap action")
	}
	// App-restart scenario starts at app restart.
	if recoveries[recovery.ScenarioAppReboot][core.RAIPSocketReset] > 0 {
		t.Error("app+reboot scenario used socket reset")
	}
}

// TestReportsCarryFullContext verifies every report produced by a campaign
// has the node-status fields the paper's reports carry.
func TestReportsCarryFullContext(t *testing.T) {
	tb, err := New(Options{Name: "realistic", Seed: 63, Kind: core.WLRealistic,
		Scenario: recovery.ScenarioSIRAs})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(12 * sim.Hour)
	res := tb.Results()
	if len(res.Reports()) == 0 {
		t.Skip("no failures in this window")
	}
	nodes := map[string]bool{}
	for _, s := range []string{"Verde", "Miseno", "Azzurro", "Win", "Ipaq", "Zaurus"} {
		nodes[s] = true
	}
	for _, r := range res.Reports() {
		if !nodes[r.Node] {
			t.Fatalf("report from unknown node %q", r.Node)
		}
		if !r.Failure.Valid() {
			t.Fatal("report without failure type")
		}
		if r.Workload != core.WLRealistic {
			t.Fatalf("report with workload %v", r.Workload)
		}
		if r.DistanceM != 0.5 && r.DistanceM != 5 && r.DistanceM != 7 {
			t.Fatalf("report with distance %v", r.DistanceM)
		}
		if r.At < 0 || r.At > res.Duration {
			t.Fatalf("report timestamp %v outside campaign", r.At)
		}
	}
}

// TestSystemEntriesAttributable verifies system entries always carry a valid
// source/code pair that agrees with the taxonomy.
func TestSystemEntriesAttributable(t *testing.T) {
	tb, err := New(Options{Name: "random", Seed: 64, Kind: core.WLRandom,
		Scenario: recovery.ScenarioSIRAs})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(12 * sim.Hour)
	res := tb.Results()
	if len(res.Entries()) == 0 {
		t.Skip("no system entries in this window")
	}
	for _, e := range res.Entries() {
		if !e.Source.Valid() {
			t.Fatalf("entry with invalid source: %+v", e)
		}
		if e.Code.Source() != e.Source {
			t.Fatalf("entry code %v does not belong to source %v", e.Code, e.Source)
		}
	}
}

// TestMaskedScenarioSuppressesUserVisibleFailures compares the masked and
// unmasked scenarios on the same seed: the masked run must have fewer
// user-visible failures but roughly comparable underlying fault activity
// (system entries).
func TestMaskedScenarioSuppressesUserVisibleFailures(t *testing.T) {
	run := func(sc recovery.Scenario) (failures, masked, sysEntries int) {
		tb, err := New(Options{Name: "random", Seed: 65, Kind: core.WLRandom, Scenario: sc})
		if err != nil {
			t.Fatal(err)
		}
		tb.Run(2 * sim.Day)
		res := tb.Results()
		for _, r := range res.Reports() {
			if r.Masked {
				masked++
			} else {
				failures++
			}
		}
		return failures, masked, len(res.Entries())
	}
	f0, m0, _ := run(recovery.ScenarioSIRAs)
	f1, m1, _ := run(recovery.ScenarioSIRAsMasking)
	if m0 != 0 {
		t.Errorf("unmasked scenario recorded %d masked events", m0)
	}
	if m1 == 0 {
		t.Error("masked scenario recorded no masked events")
	}
	if f1 >= f0 {
		t.Errorf("masking did not reduce user-visible failures: %d -> %d", f0, f1)
	}
}

// TestMutateWorkloadHook checks the per-client workload mutation plumbing.
func TestMutateWorkloadHook(t *testing.T) {
	seen := map[string]bool{}
	tb, err := New(Options{Name: "random", Seed: 66, Kind: core.WLRandom,
		Scenario: recovery.ScenarioSIRAs,
		MutateWorkload: func(node string, cfg *workload.Config) {
			seen[node] = true
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(tb.Clients) {
		t.Errorf("mutate hook saw %d clients, want %d", len(seen), len(tb.Clients))
	}
}

// TestHostConfigsIndependent ensures MutateHost changes one host without
// leaking into others (configs are value types).
func TestHostConfigsIndependent(t *testing.T) {
	tb, err := New(Options{Name: "random", Seed: 67, Kind: core.WLRandom,
		Scenario: recovery.ScenarioSIRAs,
		MutateHost: func(name string, cfg *stack.Config) {
			if name == "Verde" {
				cfg.LatentDefectProb = 1
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	def := stack.DefaultHostConfig(5).LatentDefectProb
	for _, h := range tb.PANUs {
		want := def
		if h.Node == "Verde" {
			want = 1
		}
		if got := h.Config().LatentDefectProb; got != want {
			t.Errorf("%s LatentDefectProb = %v, want %v", h.Node, got, want)
		}
	}
}
