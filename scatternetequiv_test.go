package btpan

import (
	"reflect"
	"testing"

	"repro/internal/sim"
)

// runScat runs a scatternet campaign for the equivalence suite.
func runScat(t *testing.T, piconets, bridges int, streaming bool) *ScatternetResult {
	t.Helper()
	res, err := RunScatternet(ScatternetConfig{
		CampaignConfig: CampaignConfig{
			Seed: 7, Duration: equivDuration(), Scenario: ScenarioSIRAsMasking,
			Streaming: streaming,
		},
		Piconets: piconets,
		Bridges:  bridges,
		HoldTime: 10 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScatternetOnePiconetEquivalence is the seed-equivalence guarantee of
// the scatternet subsystem: a 1-piconet scatternet reproduces the classic
// single-piconet campaign's Table 2/3/4, figures and §6 scalars
// bit-identically on a fixed seed, on both aggregation planes.
func TestScatternetOnePiconetEquivalence(t *testing.T) {
	classic := runEquiv(t, false, false, 0)
	scat := runScat(t, 1, 0, false)
	if len(scat.Piconets) != 1 {
		t.Fatalf("1-piconet scatternet has %d piconets", len(scat.Piconets))
	}
	compareOutputs(t, "1-piconet scatternet vs classic campaign", classic, scat.Piconet(0))

	streaming := runScat(t, 1, 0, true)
	compareOutputs(t, "streaming 1-piconet scatternet vs classic campaign",
		classic, streaming.Piconet(0))
}

// TestScatternetPiconetZeroUnperturbed pins the composition's isolation:
// adding piconets and bridges around piconet 0 cannot change a single float
// of its tables, because no state crosses a simulation-world boundary.
func TestScatternetPiconetZeroUnperturbed(t *testing.T) {
	classic := runEquiv(t, true, false, 0)
	scat := runScat(t, 3, 2, true)
	compareOutputs(t, "piconet 0 of a 3-piconet/2-bridge scatternet vs classic",
		classic, scat.Piconet(0))
}

// TestScatternetBridgeAccounting checks the bridge-attributed aggregate's
// internal consistency on a real multi-piconet run: one row per bridge, a
// live hold-time rotation, and outage bookkeeping that agrees between the
// per-bridge and per-piconet views.
func TestScatternetBridgeAccounting(t *testing.T) {
	scat := runScat(t, 3, 2, true)
	bt := scat.Bridges
	if len(bt.Rows) != 2 {
		t.Fatalf("expected 2 bridge rows, got %d", len(bt.Rows))
	}
	corr, relayed := 0, 0
	for _, r := range bt.Rows {
		relayed += r.Relayed
		if len(r.Serves) != 2 {
			t.Errorf("%s serves %v, want 2 piconets", r.Bridge, r.Serves)
		}
		if r.Hops == 0 {
			t.Errorf("%s never completed a residency switch", r.Bridge)
		}
		for _, c := range r.Coupling {
			if c.Outages != r.Outages {
				t.Errorf("%s: piconet %d saw %d outages, bridge recorded %d (must be correlated)",
					r.Bridge, c.Piconet, c.Outages, r.Outages)
			}
			corr += c.Outages
		}
		if r.Downtime.N() != r.Outages {
			t.Errorf("%s: %d downtime samples for %d outages", r.Bridge, r.Downtime.N(), r.Outages)
		}
		delivered := 0
		for _, c := range r.Coupling {
			delivered += c.Delivered
		}
		if delivered != r.Relayed {
			t.Errorf("%s: per-piconet deliveries %d != total relayed %d", r.Bridge, delivered, r.Relayed)
		}
	}
	if got := bt.CorrelatedOutages(); got != corr {
		t.Errorf("CorrelatedOutages() = %d, per-coupling sum = %d", got, corr)
	}
	if relayed == 0 {
		t.Error("no relay SDU was delivered across piconets in a virtual day")
	}
}

// TestScatternetSweep runs a small scatternet sweep and checks the
// piconet-0 view plus the coupling CIs are populated.
func TestScatternetSweep(t *testing.T) {
	res, err := Sweep(SweepConfig{
		BaseSeed: 1, Seeds: 2, Duration: 6 * Hour, Scenario: ScenarioSIRAs,
		Workers: 2, Piconets: 2, Bridges: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scatternets) != 2 {
		t.Fatalf("expected 2 scatternet runs, got %d", len(res.Scatternets))
	}
	if res.Runs[0] != res.Scatternets[0].Piconets[0] {
		t.Error("Runs[0] is not seed 0's piconet-0 result")
	}
	if ci := res.PiconetDependabilityCI(1); ci == nil || ci.Seeds != 2 {
		t.Errorf("PiconetDependabilityCI(1) = %+v, want 2 seeds", ci)
	}
	if res.PiconetDependabilityCI(2) != nil {
		t.Error("PiconetDependabilityCI out of range should be nil")
	}
	if ci := res.CorrelatedOutagesCI(); ci.N != 2 {
		t.Errorf("CorrelatedOutagesCI over %d seeds, want 2", ci.N)
	}
	if ci := res.RelayDepthCI(); ci == nil || ci.Seeds != 2 || len(ci.Rows) == 0 {
		t.Errorf("RelayDepthCI = %+v, want 2 seeds with rows", ci)
	}
	if ci := res.RedundancyCI(); ci == nil || ci.Seeds != 2 || ci.MemberOutages.N != 2 {
		t.Errorf("RedundancyCI = %+v, want 2 seeds", ci)
	}
}

// TestScatternetSweepSharedRandomTopology pins that a random-topology sweep
// materializes ONE graph from the base seed and reuses it for every seed —
// the CIs must measure seed-to-seed variation, not topology churn.
func TestScatternetSweepSharedRandomTopology(t *testing.T) {
	res, err := Sweep(SweepConfig{
		BaseSeed: 5, Seeds: 2, Duration: 2 * Hour, Scenario: ScenarioSIRAs,
		Workers: 2, Piconets: 3, Bridges: 3, Topology: TopologyRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Scatternets[0].Topology, res.Scatternets[1].Topology
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seeds ran different random topologies:\nseed 0: %+v\nseed 1: %+v", a, b)
	}
	if a.Bridges() != 3 || !a.Connected() {
		t.Errorf("sweep topology %+v, want 3 connected bridges", a)
	}
}
