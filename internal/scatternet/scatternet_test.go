package scatternet

import (
	"testing"

	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stack"
)

// baseConfig returns a small two-piconet, one-bridge campaign config.
func baseConfig() Config {
	topo := RingBridges(2, 1)
	return Config{
		Seed:     3,
		Duration: 2 * sim.Hour,
		Scenario: recovery.ScenarioSIRAs,
		Topology: &topo,
		HoldTime: 5 * sim.Second,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"base", func(c *Config) {}, true},
		{"no duration", func(c *Config) { c.Duration = 0 }, false},
		{"bad scenario", func(c *Config) { c.Scenario = 9 }, false},
		{"negative hold", func(c *Config) { c.HoldTime = -sim.Second }, false},
		{"defaulted knobs", func(c *Config) { c.HoldTime, c.RelayEvery, c.RelayBytes = 0, 0, 0 }, true},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestPiconetSeed(t *testing.T) {
	if got := PiconetSeed(42, 0); got != 42 {
		t.Fatalf("PiconetSeed(42, 0) = %d, must keep the root seed", got)
	}
	seen := map[uint64]int{42: 0}
	for p := 1; p < 8; p++ {
		s := PiconetSeed(42, p)
		if prev, dup := seen[s]; dup {
			t.Fatalf("piconets %d and %d share seed %d", prev, p, s)
		}
		seen[s] = p
	}
}

// TestResidencySchedule pins the hold-time rotation at and around the
// boundaries: residency changes exactly at multiples of the hold time.
func TestResidencySchedule(t *testing.T) {
	h := 5 * sim.Second
	cases := []struct {
		at   sim.Time
		n    int
		want int
	}{
		{0, 2, 0},
		{h - 1, 2, 0},           // just below the first boundary
		{h, 2, 1},               // exactly on it
		{h + 1, 2, 1},           // just past it
		{2*h - 1, 2, 1},         // end of the second slot
		{2 * h, 2, 0},           // wraps around
		{7*h + h/2, 2, 1},       // mid-slot, odd slot
		{3 * h, 3, 0},           // three-way rotation wraps
		{4*h + h - 1, 3, 1},     // stays put through a whole slot
		{1000000 * h, 2, 0},     // deep into the campaign
		{1000001*h + h/3, 2, 1}, // and one slot later
	}
	for _, tc := range cases {
		if got := residencyAt(tc.at, h, tc.n); got != tc.want {
			t.Errorf("residencyAt(%v, %v, %d) = %d, want %d", tc.at, h, tc.n, got, tc.want)
		}
	}
}

// TestBridgeHopsOnBoundaries runs a real campaign and asserts every
// completed residency switch lands exactly on a hold-time boundary and
// attaches to the piconet the schedule dictates — including boundaries the
// bridge crosses right after recovering from an outage.
func TestBridgeHopsOnBoundaries(t *testing.T) {
	cfg := baseConfig()
	hops := 0
	cfg.OnBridgeHop = func(bridge string, at sim.Time, piconet int) {
		hops++
		if at%cfg.HoldTime != 0 {
			t.Errorf("%s hopped at %v, not a multiple of the hold time %v", bridge, at, cfg.HoldTime)
		}
		want := residencyAt(at, cfg.HoldTime, 2)
		if piconet != want {
			t.Errorf("%s resident in piconet %d at %v, schedule dictates %d", bridge, piconet, at, want)
		}
	}
	camp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if hops == 0 {
		t.Fatal("bridge never hopped in two virtual hours")
	}
	row := res.Bridges.Rows[0]
	if row.Hops < hops {
		t.Errorf("accumulator recorded %d hops, hook saw %d boundary hops", row.Hops, hops)
	}
}

// TestBridgeFailureWhileRelaying forces the first relay transfers to fail
// (every pipe carries an immediate latent defect) and checks the correlated
// outage accounting: the failure is recovered through the standard cascade,
// both served piconets record every outage, and traffic offered while the
// bridge is down is counted against the piconets that lost it.
func TestBridgeFailureWhileRelaying(t *testing.T) {
	cfg := baseConfig()
	cfg.Duration = 6 * sim.Hour
	cfg.RelayEvery = 2 * sim.Second // dense traffic: outages always see offered SDUs
	cfg.MutateBridgeHost = func(bridge string, hc *stack.Config) {
		hc.LatentDefectProb = 1 // every connection's pipe fails young
		hc.LatentMeanPackets = 1
	}
	camp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	row := res.Bridges.Rows[0]
	if row.Outages == 0 {
		t.Fatal("latent-defect bridge produced no outage in six virtual hours")
	}
	if row.RelayLost == 0 {
		t.Error("no relay SDU was recorded lost despite forced defects")
	}
	if row.Downtime.Sum() <= 0 {
		t.Error("outages accumulated no downtime")
	}
	if len(row.Coupling) != 2 {
		t.Fatalf("bridge couples %d piconets, want 2", len(row.Coupling))
	}
	for _, c := range row.Coupling {
		if c.Outages != row.Outages {
			t.Errorf("piconet %d saw %d outages, bridge had %d — coupling must be correlated",
				c.Piconet, c.Outages, row.Outages)
		}
	}
	dropped := 0
	for _, c := range row.Coupling {
		dropped += c.DroppedInOutage
	}
	if dropped == 0 {
		t.Error("no SDU was dropped during outages despite 2 s arrivals and minute-scale TTRs")
	}
	if got, want := res.Bridges.CorrelatedOutages(), 2*row.Outages; got != want {
		t.Errorf("CorrelatedOutages() = %d, want %d (outages x served piconets)", got, want)
	}
}

// TestRunDeterministic pins that the parallel orchestration cannot change
// bridge-attributed results: sequential and parallel runs agree exactly.
func TestRunDeterministic(t *testing.T) {
	run := func(parallelism int) *Result {
		cfg := baseConfig()
		cfg.Duration = 1 * sim.Hour
		cfg.Parallelism = parallelism
		camp, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := camp.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par, seq := run(0), run(1)
	pr, sr := par.Bridges.Rows[0], seq.Bridges.Rows[0]
	if pr.Hops != sr.Hops || pr.Relayed != sr.Relayed || pr.Outages != sr.Outages ||
		pr.RelayLost != sr.RelayLost || pr.Downtime.Sum() != sr.Downtime.Sum() {
		t.Errorf("parallel and sequential scatternet runs diverge:\n par %+v\n seq %+v", pr, sr)
	}
	if len(par.Piconets) != len(seq.Piconets) {
		t.Fatal("piconet count diverges")
	}
}

// TestConfigTopologyCrossChecks pins the Config/Topology consistency rules:
// the topology is required and an invalid membership map fails validation.
func TestConfigTopologyCrossChecks(t *testing.T) {
	topo := Star(3)
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"topology", func(c *Config) { c.Topology = &topo }, true},
		{"no topology", func(c *Config) { c.Topology = nil }, false},
		{"invalid topology", func(c *Config) {
			bad := Topology{Piconets: 2, Members: [][]int{{0, 0}}}
			c.Topology = &bad
		}, false},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestStarRelayDepths runs a real star campaign and checks the probe plane:
// hub routes are depth 1, spoke-to-spoke routes depth 2, delays are
// non-negative, and deeper routes cost more on average (two residency
// rotations instead of one).
func TestStarRelayDepths(t *testing.T) {
	topo := Star(3)
	cfg := baseConfig()
	cfg.Topology = &topo
	camp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	depths := res.RelayDepth.Depths()
	if len(depths) != 2 || depths[0] != 1 || depths[1] != 2 {
		t.Fatalf("star relay depths = %v, want [1 2]", depths)
	}
	if res.RelayDepth.Unreachable != 0 {
		t.Errorf("%d unreachable probes in a connected star", res.RelayDepth.Unreachable)
	}
	d1, d2 := res.RelayDepth.ByDepth[1], res.RelayDepth.ByDepth[2]
	if d1.N() == 0 || d2.N() == 0 {
		t.Fatalf("empty depth buckets: %d/%d probes", d1.N(), d2.N())
	}
	if d1.Min() < 0 || d2.Min() < 0 {
		t.Error("negative relay delay")
	}
	if d2.Mean() <= d1.Mean() {
		t.Errorf("depth-2 mean %.2f s not above depth-1 mean %.2f s", d2.Mean(), d1.Mean())
	}
}

// TestRedundancyGroupAccounting runs a 2-redundant campaign and checks the
// all-down bookkeeping against the per-bridge rows: all-down time can never
// exceed any single member's downtime, episodes can never exceed member
// outages, and the table's span/K wiring matches the topology.
func TestRedundancyGroupAccounting(t *testing.T) {
	topo := RingBridges(2, 1).WithRedundancy(2)
	cfg := baseConfig()
	cfg.Duration = 6 * sim.Hour
	cfg.Topology = &topo
	camp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Redundancy.Rows) != 1 {
		t.Fatalf("%d redundancy rows, want 1", len(res.Redundancy.Rows))
	}
	g := res.Redundancy.Rows[0]
	if g.K != 2 || len(g.Bridges) != 2 || len(g.MemberDownSeconds) != 2 {
		t.Fatalf("group shape %+v, want K=2", g)
	}
	if g.DurationSeconds != cfg.Duration.Seconds() {
		t.Errorf("group horizon %.0f s, want %.0f s", g.DurationSeconds, cfg.Duration.Seconds())
	}
	if g.MemberOutages == 0 {
		t.Fatal("no member outage in six virtual hours")
	}
	if g.AllDownEpisodes > g.MemberOutages {
		t.Errorf("%d all-down episodes exceed %d member outages", g.AllDownEpisodes, g.MemberOutages)
	}
	for i, down := range g.MemberDownSeconds {
		if g.AllDownSeconds > down+1e-9 {
			t.Errorf("all-down %.1f s exceeds member %d downtime %.1f s", g.AllDownSeconds, i, down)
		}
		if down > g.DurationSeconds+1e-9 {
			t.Errorf("member %d downtime %.1f s exceeds the campaign horizon", i, down)
		}
	}
	if got := g.MeasuredUnavailability(); got < 0 || got > 1 {
		t.Errorf("measured unavailability %v out of [0,1]", got)
	}
	if m := g.Model1of2(); m == nil || m.Availability() < 0 || m.Availability() > 1 {
		t.Errorf("1-of-2 model = %+v", m)
	}
	// Redundancy must help: the all-down fraction is below the worst
	// member's individual down fraction.
	worst := 0.0
	for _, down := range g.MemberDownSeconds {
		if f := down / g.DurationSeconds; f > worst {
			worst = f
		}
	}
	if g.MeasuredUnavailability() >= worst && worst > 0 {
		t.Errorf("all-down fraction %.3f not below worst member %.3f", g.MeasuredUnavailability(), worst)
	}
}

// TestWideBridgeMembership runs a bridge that spans three piconets and
// checks the rotation visits all of them and the accounting stays
// consistent across a wider coupling set.
func TestWideBridgeMembership(t *testing.T) {
	topo := Topology{Piconets: 3, Members: [][]int{{0, 1, 2}}}
	cfg := baseConfig()
	cfg.Topology = &topo
	visited := map[int]bool{}
	cfg.OnBridgeHop = func(_ string, _ sim.Time, piconet int) { visited[piconet] = true }
	camp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 3 {
		t.Errorf("three-piconet bridge visited %v, want all of 0,1,2", visited)
	}
	row := res.Bridges.Rows[0]
	if len(row.Coupling) != 3 {
		t.Fatalf("wide bridge couples %d piconets, want 3", len(row.Coupling))
	}
	for _, c := range row.Coupling {
		if c.Outages != row.Outages {
			t.Errorf("piconet %d saw %d outages, bridge had %d", c.Piconet, c.Outages, row.Outages)
		}
	}
	if got, want := res.Bridges.CorrelatedOutages(), 3*row.Outages; got != want {
		t.Errorf("CorrelatedOutages() = %d, want %d", got, want)
	}
}
