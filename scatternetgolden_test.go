package btpan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scatternet"
	"repro/internal/sim"
)

// The golden suite proves the topology refactor behavior-preserving: the
// numbers below were captured from the PR 3 implementation (implicit ring,
// no topology layer, no probe plane, no redundancy tracking) on seed 7, six
// virtual hours, three piconets, three ring bridges, scenario SIRAs — and
// the explicit-topology engine must keep reproducing them, on both
// aggregation planes, through Ring(3) and through the legacy Piconets/
// Bridges configuration alike.

// goldenRingConfig is the pinned campaign: the exact configuration the PR 3
// golden numbers were captured under.
func goldenRingConfig(streaming bool) ScatternetConfig {
	return ScatternetConfig{
		CampaignConfig: CampaignConfig{
			Seed: 7, Duration: 6 * sim.Hour, Scenario: ScenarioSIRAs,
			Streaming: streaming, Parallelism: 1,
		},
		Piconets: 3, Bridges: 3, HoldTime: 10 * sim.Second,
	}
}

// goldenPiconetLines formats the per-piconet dataset and dependability
// fields at pinning precision.
func goldenPiconetLines(res *ScatternetResult) []string {
	var out []string
	for p, pic := range res.Piconets {
		u, s, _ := pic.DataItems()
		d := pic.Dependability()
		out = append(out, fmt.Sprintf(
			"piconet %d: reports=%d entries=%d MTTF=%.6f MTTR=%.6f avail=%.9f fail=%d",
			p, u, s, d.MTTF, d.MTTR, d.Availability, d.Failures))
	}
	return out
}

// goldenBridgeLines formats the bridge-attributed rows at pinning precision.
func goldenBridgeLines(res *ScatternetResult) []string {
	var out []string
	for _, r := range res.Bridges.Rows {
		out = append(out, fmt.Sprintf(
			"%s dev=%s serves=%v hops=%d relayed=%d lost=%d corrupt=%d outages=%d sys=%d downSum=%.9f latMean=%.9f latN=%d",
			r.Bridge, r.Device, r.Serves, r.Hops, r.Relayed, r.RelayLost, r.RelayCorrupted,
			r.Outages, r.SysErrors, r.Downtime.Sum(), r.RelayLatency.Mean(), r.RelayLatency.N()))
		for _, c := range r.Coupling {
			out = append(out, fmt.Sprintf(
				"  piconet %d: out=%d outS=%.9f del=%d lost=%d corr=%d dropOut=%d dropQ=%d",
				c.Piconet, c.Outages, c.OutageSeconds, c.Delivered, c.Lost, c.Corrupted,
				c.DroppedInOutage, c.DroppedQueueFull))
		}
	}
	return out
}

// goldenRing holds the PR 3 capture.
var goldenRing = []string{
	"piconet 0: reports=32 entries=63 MTTF=674.230389 MTTR=43.514491 avail=0.939373318 fail=32",
	"piconet 1: reports=53 entries=84 MTTF=403.131519 MTTR=57.585456 avail=0.875009042 fail=53",
	"piconet 2: reports=44 entries=63 MTTF=475.053600 MTTR=39.385912 avail=0.923439177 fail=44",
	"bridge0 dev=Verde serves=[0 1] hops=632 relayed=400 lost=0 corrupt=0 outages=180 sys=181 downSum=15963.519115291 latMean=18.388715309 latN=400",
	"  piconet 0: out=180 outS=15963.519115291 del=213 lost=0 corr=0 dropOut=548 dropQ=0",
	"  piconet 1: out=180 outS=15963.519115291 del=187 lost=0 corr=0 dropOut=546 dropQ=0",
	"bridge1 dev=Miseno serves=[1 2] hops=685 relayed=416 lost=0 corrupt=0 outages=217 sys=218 downSum=15593.659170586 latMean=14.502689140 latN=416",
	"  piconet 1: out=217 outS=15593.659170586 del=206 lost=0 corr=0 dropOut=523 dropQ=0",
	"  piconet 2: out=217 outS=15593.659170586 del=210 lost=0 corr=0 dropOut=530 dropQ=0",
	"bridge2 dev=Azzurro serves=[2 0] hops=686 relayed=437 lost=0 corrupt=0 outages=178 sys=178 downSum=15431.378299064 latMean=13.183936033 latN=437",
	"  piconet 2: out=178 outS=15431.378299064 del=214 lost=0 corr=0 dropOut=516 dropQ=0",
	"  piconet 0: out=178 outS=15431.378299064 del=223 lost=0 corr=0 dropOut=506 dropQ=0",
}

// TestGoldenRingMatchesPR3 pins the refactor against the PR 3 capture on
// both aggregation planes: running the topology engine over the legacy ring
// configuration must reproduce every pinned dataset, dependability, bridge
// and coupling number — the probe plane and redundancy trackers that now
// run alongside may add tables but may not move a single digit.
func TestGoldenRingMatchesPR3(t *testing.T) {
	if testing.Short() {
		t.Skip("golden pin runs six virtual hours x three piconets; skipped in -short")
	}
	for _, streaming := range []bool{false, true} {
		res, err := RunScatternet(goldenRingConfig(streaming))
		if err != nil {
			t.Fatal(err)
		}
		got := append(goldenPiconetLines(res), goldenBridgeLines(res)...)
		if !reflect.DeepEqual(got, goldenRing) {
			t.Errorf("streaming=%v diverges from the PR 3 golden capture:\ngot:\n%s\nwant:\n%s",
				streaming, strings.Join(got, "\n"), strings.Join(goldenRing, "\n"))
		}
	}
}

// TestRingTopologyMatchesLegacyRing pins Ring(P) ≡ the legacy Piconets/
// Bridges ring bit-identically (reflect.DeepEqual on the full bridge table
// and every piconet's tables), on both planes: the explicit membership map
// is the implicit ring made visible, nothing more.
func TestRingTopologyMatchesLegacyRing(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence pin runs six virtual hours x three piconets twice; skipped in -short")
	}
	for _, streaming := range []bool{false, true} {
		legacy, err := RunScatternet(goldenRingConfig(streaming))
		if err != nil {
			t.Fatal(err)
		}
		ringCfg := goldenRingConfig(streaming)
		ringCfg.Bridges = 0
		ringCfg.Topology = TopologyRing
		ring, err := RunScatternet(ringCfg)
		if err != nil {
			t.Fatal(err)
		}
		want := scatternet.Ring(3)
		if !reflect.DeepEqual(ring.Topology, want) {
			t.Fatalf("Ring topology resolved to %+v, want %+v", ring.Topology, want)
		}
		if !reflect.DeepEqual(legacy.Topology, want) {
			t.Fatalf("legacy ring resolved to %+v, want Ring(3) %+v", legacy.Topology, want)
		}
		if !reflect.DeepEqual(ring.Bridges, legacy.Bridges) {
			t.Errorf("streaming=%v: Ring(3) bridge table diverges from legacy ring", streaming)
		}
		if !reflect.DeepEqual(ring.RelayDepth, legacy.RelayDepth) {
			t.Errorf("streaming=%v: Ring(3) relay-depth table diverges from legacy ring", streaming)
		}
		if !reflect.DeepEqual(ring.Redundancy, legacy.Redundancy) {
			t.Errorf("streaming=%v: Ring(3) redundancy table diverges from legacy ring", streaming)
		}
		for p := range ring.Piconets {
			sameBytes(t, fmt.Sprintf("Ring(3) piconet %d vs legacy ring (streaming=%v)", p, streaming),
				flatBytes(legacy.Piconet(p)), flatBytes(ring.Piconet(p)))
			checkKeptFig3b(t, legacy.Piconet(p))
			checkKeptFig3b(t, ring.Piconet(p))
		}
	}
}

// TestScatternetConfigDegenerateCounts pins that Validate returns errors —
// never panics — for degenerate piconet/bridge counts combined with the
// topology and redundancy knobs.
func TestScatternetConfigDegenerateCounts(t *testing.T) {
	base := CampaignConfig{Seed: 1, Duration: Day, Scenario: ScenarioSIRAs}
	cases := []struct {
		name string
		cfg  ScatternetConfig
		ok   bool
	}{
		{"zero piconets with redundancy", ScatternetConfig{CampaignConfig: base, Piconets: 0, Bridges: 1, Redundancy: 2}, false},
		{"negative bridges with redundancy", ScatternetConfig{CampaignConfig: base, Piconets: 2, Bridges: -1, Redundancy: 2}, false},
		{"zero bridges with redundancy", ScatternetConfig{CampaignConfig: base, Piconets: 2, Bridges: 0, Redundancy: 2}, true},
		{"redundant legacy ring", ScatternetConfig{CampaignConfig: base, Piconets: 2, Bridges: 1, Redundancy: 2}, true},
		{"zero piconets ring topology", ScatternetConfig{CampaignConfig: base, Piconets: 0, Topology: TopologyRing}, false},
	}
	for _, tc := range cases {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Validate panicked: %v", tc.name, r)
				}
			}()
			return tc.cfg.Validate()
		}()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestScatternetConfigBridgeCounts pins the default topology's two count
// rejections at the btpan boundary: the ring pairing cannot place a
// negative number of bridges, nor connect bridges with fewer than two
// piconets.
func TestScatternetConfigBridgeCounts(t *testing.T) {
	base := CampaignConfig{Seed: 1, Duration: Day, Scenario: ScenarioSIRAs}
	for _, tc := range []struct {
		cfg  ScatternetConfig
		want string
	}{
		{ScatternetConfig{CampaignConfig: base, Piconets: 3, Bridges: -1}, "negative bridge count"},
		{ScatternetConfig{CampaignConfig: base, Piconets: 1, Bridges: 1}, "need at least two piconets"},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%d piconets, %d bridges: Validate() = %v, want an error containing %q",
				tc.cfg.Piconets, tc.cfg.Bridges, err, tc.want)
		}
	}
}
