package btpan

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestScatternetRollupPublicAPI drives the hierarchical roll-up through the
// public surface: Rollup mode must return the metro report instead of
// per-piconet results, Overview() must fall back to the roll-up's overview,
// and the render must carry the deployment tables.
func TestScatternetRollupPublicAPI(t *testing.T) {
	cfg := ScatternetConfig{
		CampaignConfig: CampaignConfig{
			Seed: 5, Duration: 2 * sim.Hour, Scenario: ScenarioSIRAs, Streaming: true,
		},
		Piconets: 4, Topology: TopologyRing,
		ProbeSample: 0.5, Rollup: true,
	}
	res, err := RunScatternet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollup == nil {
		t.Fatal("Rollup mode returned no roll-up")
	}
	if len(res.Piconets) != 0 {
		t.Fatalf("Rollup mode retained %d per-piconet results, want none", len(res.Piconets))
	}
	overview := res.Overview()
	if overview == nil || len(overview.Rows) != 4 {
		t.Fatalf("Overview() fallback = %+v, want the roll-up's 4 rows", overview)
	}
	out := res.Rollup.Render()
	for _, want := range []string{
		"Scatternet roll-up: 4 piconets",
		"Deployment Table 2",
		"Deployment Table 3",
		"Piconet overview",
		"All-bridge summary",
		"pair sample fraction 0.5000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("roll-up render is missing %q:\n%s", want, out)
		}
	}

	// Rollup without the streaming plane must be rejected up front.
	bad := cfg
	bad.Streaming = false
	if err := bad.Validate(); err == nil {
		t.Error("Rollup without Streaming must fail validation")
	}
	if _, err := RunScatternet(bad); err == nil {
		t.Error("RunScatternet must reject Rollup without Streaming")
	}
}

// TestScatternetRollupTaxonomyShardInvariant pins the taxonomy plane's
// shard-count invariance: the deployment taxonomy table, the Kaplan-Meier
// uptime curve and the partition-candidate list rendered from a roll-up must
// be byte-identical whether one worker folded every piconet sequentially or
// three workers folded contiguous ranges concurrently. Uptime intervals are
// censored at the horizon per piconet before the fold merges them, so the
// merged curve cannot depend on fold grouping.
func TestScatternetRollupTaxonomyShardInvariant(t *testing.T) {
	render := func(parallelism int) string {
		cfg := ScatternetConfig{
			CampaignConfig: CampaignConfig{
				Seed: 5, Duration: 2 * sim.Hour, Scenario: ScenarioSIRAs,
				Streaming: true, Parallelism: parallelism,
			},
			Piconets: 4, Topology: TopologyRing,
			ProbeSample: 0.5, Rollup: true,
		}
		res, err := RunScatternet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := res.Rollup.RenderTaxonomy(cfg.Duration)
		if res.Topology.Bridges() > 0 {
			out += "\n" + res.Redundancy.RenderPartitionCandidates(30)
		}
		return out
	}
	seq := render(1)
	par := render(3)
	if seq != par {
		t.Errorf("taxonomy roll-up differs across shard counts:\n-- sequential --\n%s\n-- 3 shards --\n%s",
			seq, par)
	}
	for _, want := range []string{"Deployment failure taxonomy", "Kaplan-Meier", "failure interarrival"} {
		if !strings.Contains(seq, want) {
			t.Errorf("taxonomy roll-up is missing %q:\n%s", want, seq)
		}
	}
}

// TestRandomSweepBuildsTopologyOnce is the hot-loop regression guard for
// random-topology sweeps: the RandomConnected graph is a function of the
// base seed alone, so a sweep materializes it once up front and every seed
// runs that one map — the same backing storage, not a regenerated copy.
func TestRandomSweepBuildsTopologyOnce(t *testing.T) {
	cfg := SweepConfig{
		BaseSeed: 7, Seeds: 5, Duration: 1 * sim.Hour, Scenario: ScenarioSIRAs,
		Piconets: 4, Bridges: 5, Topology: TopologyRandom, Workers: 2,
	}
	res, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pinned := res.Config.randomMembers
	if len(pinned) == 0 {
		t.Fatal("the sweep pinned no random membership map")
	}
	if want := cfg.materializeTopology().randomMembers; !reflect.DeepEqual(pinned, want) {
		t.Errorf("pinned map %v, want the base seed's graph %v", pinned, want)
	}
	for i, r := range res.Scatternets {
		if m := r.Topology.Members; len(m) != len(pinned) || &m[0] != &pinned[0] {
			t.Errorf("seed %d ran its own copy of the topology, not the pinned map", i)
		}
	}
}
