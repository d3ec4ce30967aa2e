package scatternet

import (
	"testing"

	"repro/internal/recovery"
	"repro/internal/sim"
)

// rollupConfig is the shared small city-in-miniature: six piconets on a
// ring, streaming plane, sampled probes, hierarchical roll-up.
func rollupConfig() Config {
	topo := Ring(6)
	return Config{
		Seed:              9,
		Duration:          2 * sim.Hour,
		Scenario:          recovery.ScenarioSIRAs,
		Topology:          &topo,
		HoldTime:          5 * sim.Second,
		ProbePairFraction: 0.5,
		Streaming:         true,
		Rollup:            true,
	}
}

// runRollup runs the config and returns the rendered metro report.
func runRollup(t *testing.T, cfg Config) *Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollup == nil {
		t.Fatal("rollup mode produced no roll-up")
	}
	if len(res.Piconets) != 0 {
		t.Fatalf("rollup mode retained %d per-piconet results, want none", len(res.Piconets))
	}
	return res
}

// TestRollupShardCountInvariance is the merge law at engine level: the same
// campaign folded by 1, 2, 3, 6 or an over-asked 7 shards must render the
// byte-identical metro report — the partials hold only exact sums and the
// order-sensitive dependability accumulator is re-derived over the totally
// ordered deployment trace, so shard boundaries and completion order can
// leave no trace in the output.
func TestRollupShardCountInvariance(t *testing.T) {
	want := ""
	for _, shards := range []int{1, 2, 3, 6, 7} {
		cfg := rollupConfig()
		cfg.Parallelism = shards
		got := runRollup(t, cfg).Rollup.Render()
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%d-shard roll-up differs from the 1-shard report:\n%s\nvs\n%s", shards, got, want)
		}
	}
}

// TestRollupMatchesRetained cross-checks the roll-up against the retained
// engine on the same seed: the deployment data-item total must equal the
// sum over the retained per-piconet aggregates, and the roll-up's overview
// rows must reproduce each retained piconet's dependability column exactly.
func TestRollupMatchesRetained(t *testing.T) {
	rolled := runRollup(t, rollupConfig())

	cfg := rollupConfig()
	cfg.Rollup = false
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	retained, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}

	wantU, wantS := 0, 0
	for _, pic := range retained.Piconets {
		u, s, _ := pic.Agg.DataItems()
		wantU += u
		wantS += s
	}
	gotU, gotS, _ := rolled.Rollup.Agg.DataItems()
	if gotU != wantU || gotS != wantS {
		t.Errorf("roll-up items %d+%d, retained piconets sum to %d+%d", gotU, gotS, wantU, wantS)
	}

	rows := rolled.Rollup.Overview.Rows
	if len(rows) != len(retained.Piconets) {
		t.Fatalf("overview has %d rows for %d piconets", len(rows), len(retained.Piconets))
	}
	scenario := cfg.Scenario.String()
	for i, pic := range retained.Piconets {
		want := pic.Agg.Dependability(scenario)
		got := rows[i].Depend
		if rows[i].Piconet != pic.Index || got.Failures != want.Failures ||
			got.MTTF != want.MTTF || got.MTTR != want.MTTR || got.Availability != want.Availability {
			t.Errorf("overview row %d = %+v, retained piconet says %+v", i, got, want)
		}
	}

	if rolled.Bridges == nil || rolled.Rollup.Bridges == nil {
		t.Fatal("ring campaign must produce a bridge table and an all-bridge summary")
	}
	hops, relayed := 0, 0
	for _, row := range rolled.Bridges.Rows {
		hops += row.Hops
		relayed += row.Relayed
	}
	if rolled.Rollup.Bridges.Hops != hops || rolled.Rollup.Bridges.Relayed != relayed {
		t.Errorf("all-bridge summary hops/relayed %d/%d, bridge rows sum to %d/%d",
			rolled.Rollup.Bridges.Hops, rolled.Rollup.Bridges.Relayed, hops, relayed)
	}
	if rolled.Rollup.BridgeCount != len(rolled.Bridges.Rows) {
		t.Errorf("BridgeCount = %d, bridge table has %d rows", rolled.Rollup.BridgeCount, len(rolled.Bridges.Rows))
	}
}

// TestSamplingDoesNotPerturbDataPlane pins the sampler's central promise:
// probing only a pair subset changes nothing outside the probe plane. The
// sampled run's per-piconet aggregates and bridge table must be
// byte-identical to the exhaustive run's; only the delay-vs-depth table
// thins out (and the roll-up's per-source merge must agree with the legacy
// global accumulator on the total probe count).
func TestSamplingDoesNotPerturbDataPlane(t *testing.T) {
	run := func(fraction float64) *Result {
		topo := Ring(4)
		c, err := New(Config{
			Seed:              3,
			Duration:          2 * sim.Hour,
			Scenario:          recovery.ScenarioSIRAs,
			Topology:          &topo,
			HoldTime:          5 * sim.Second,
			ProbePairFraction: fraction,
			Streaming:         true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(1)
	sampled := run(0.4)

	for p := range full.Piconets {
		if got, want := sampled.Piconets[p].Agg.Table2().Render(), full.Piconets[p].Agg.Table2().Render(); got != want {
			t.Errorf("piconet %d Table 2 changed under probe sampling:\n%s\nvs\n%s", p, got, want)
		}
	}
	if got, want := sampled.Bridges.Render(), full.Bridges.Render(); got != want {
		t.Errorf("bridge table changed under probe sampling:\n%s\nvs\n%s", got, want)
	}
	if sampled.RelayDepth.Probes() >= full.RelayDepth.Probes() {
		t.Errorf("0.4-fraction run probed %d pairs' worth, exhaustive run %d — sampling did not thin the plane",
			sampled.RelayDepth.Probes(), full.RelayDepth.Probes())
	}
}

// TestRollupRelayDepthMatchesGlobal checks the per-source probe partials:
// the roll-up's relay-depth table (merged from per-source accumulators in
// piconet order) must agree with the legacy global accumulator that feeds
// Result.RelayDepth — same depths, same probe counts, same rendered table.
func TestRollupRelayDepthMatchesGlobal(t *testing.T) {
	res := runRollup(t, rollupConfig())
	global, merged := res.RelayDepth, res.Rollup.RelayDepth
	if merged == nil {
		t.Fatal("roll-up has no relay-depth table")
	}
	if got, want := merged.Probes(), global.Probes(); got != want {
		t.Fatalf("roll-up relay-depth has %d probes, global accumulator %d", got, want)
	}
	if got, want := merged.Render(), global.Render(); got != want {
		t.Errorf("roll-up relay-depth renders differently from the global accumulator:\n%s\nvs\n%s", got, want)
	}
}

// TestRollupValidation pins the config guards the roll-up added.
func TestRollupValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"base rollup", func(c *Config) {}, true},
		{"rollup needs streaming", func(c *Config) { c.Streaming = false }, false},
		{"negative fraction", func(c *Config) { c.ProbePairFraction = -0.1 }, false},
		{"fraction above one", func(c *Config) { c.ProbePairFraction = 1.5 }, false},
		{"negative parallelism", func(c *Config) { c.Parallelism = -1 }, false},
		{"fraction one", func(c *Config) { c.ProbePairFraction = 1 }, true},
	}
	for _, tc := range cases {
		cfg := rollupConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
