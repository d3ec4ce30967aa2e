// Package cli holds the command-line pieces the campaign binaries share,
// so that btcampaign, btagent, btsink and btmerge describe a campaign the
// same way and reject the same bad input with the same one-line error:
//
//   - Campaign, the campaign identity (-seed -days -scenario);
//   - Shape, the scatternet shape (-piconets -bridges -topology
//     -redundancy -hold -probe-sample);
//   - Range, the "A:B" piconet-range grammar;
//   - Modes, the rule that rejects a flag the chosen mode does not read;
//   - SetSpec, which applies a btsink SPEC's key=value pairs to a FlagSet
//     built from the same registrations.
//
// Every value is checked, never clamped: a value the engine would read as
// "unset" and replace with a default is an error here.
package cli

import (
	"flag"
	"fmt"
	"math"
	"strings"

	btpan "repro"
	"repro/internal/collector"
	"repro/internal/scatternet"
	"repro/internal/sim"
)

// Campaign is the campaign identity every agent, sink and merge of one
// campaign must agree on.
type Campaign struct {
	Seed     uint64
	Days     int
	Scenario int
}

// Register registers -seed, -days and -scenario on fs, defaulting to seed
// 1, 4 days and scenario 3 (SIRAs).
func (c *Campaign) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&c.Seed, "seed", 1, "campaign seed")
	fs.IntVar(&c.Days, "days", 4, "virtual campaign days, 1..540")
	fs.IntVar(&c.Scenario, "scenario", int(btpan.ScenarioSIRAs),
		"recovery scenario: 1=reboot only, 2=app restart+reboot, 3=SIRAs, 4=SIRAs+masking")
}

// Check range-checks the identity.
func (c Campaign) Check() error {
	if c.Days < 1 || c.Days > 540 {
		return fmt.Errorf("-days %d out of range 1..540 (the paper's campaign was 540 days)", c.Days)
	}
	if c.Scenario < 1 || c.Scenario > 4 {
		return fmt.Errorf("-scenario %d out of range 1..4", c.Scenario)
	}
	return nil
}

// Config is the identity as a campaign configuration; callers set the
// aggregation plane.
func (c Campaign) Config() btpan.CampaignConfig {
	return btpan.CampaignConfig{Seed: c.Seed, Duration: sim.Time(c.Days) * sim.Day,
		Scenario: btpan.Scenario(c.Scenario)}
}

// ID is the identity as the collection wire compares it.
func (c Campaign) ID() collector.CampaignID {
	return collector.CampaignID{Seed: c.Seed, Duration: sim.Time(c.Days) * sim.Day,
		Scenario: c.Scenario}
}

// Shape is the scatternet shape: how many piconets, how the bridges join
// them, and how the bridges and the relay probes behave.
type Shape struct {
	Piconets    int
	Bridges     int
	Topology    string
	Redundancy  int
	Hold        int
	ProbeSample float64
}

// Register registers the six shape flags on fs, defaulting to 2 piconets,
// 1 bridge, the -bridges ring pairing, single bridges, a 10 s hold and the
// exhaustive probe plane.
func (s *Shape) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Piconets, "piconets", 2, "scatternet piconet count")
	fs.IntVar(&s.Bridges, "bridges", 1, "scatternet bridge count: default pairing / random edge budget")
	fs.StringVar(&s.Topology, "topology", "", "scatternet membership map: ring, star, mesh or random (empty = -bridges pairing)")
	fs.IntVar(&s.Redundancy, "redundancy", 1, "bridges per span, at least 1; >= 2 forms redundancy groups")
	fs.IntVar(&s.Hold, "hold", 10, "bridge residency seconds per piconet visit, at least 1")
	fs.Float64Var(&s.ProbeSample, "probe-sample", 1, "relay-probe pair sampling fraction in (0, 1]; 1 = exhaustive")
}

// shapeFlags names the flags Shape.Register registers, read off a scratch
// FlagSet so the list cannot drift from the registration.
var shapeFlags = func() []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	new(Shape).Register(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}()

// Check rejects the values the engine would otherwise read as unset and
// replace with its default: a probe sample outside (0, 1] or NaN (0 would
// run every pair), a hold, a redundancy or a piconet count below 1.
func (s Shape) Check() error {
	switch {
	case math.IsNaN(s.ProbeSample):
		return fmt.Errorf("-probe-sample is NaN; want a fraction in (0, 1] (1 = exhaustive)")
	case s.ProbeSample <= 0 || s.ProbeSample > 1:
		return fmt.Errorf("-probe-sample %v outside (0, 1] (1 = exhaustive)", s.ProbeSample)
	case s.Hold < 1:
		return fmt.Errorf("-hold %d must be at least 1 (bridge residency seconds per visit)", s.Hold)
	case s.Redundancy < 1:
		return fmt.Errorf("-redundancy %d must be at least 1 (bridges per span)", s.Redundancy)
	case s.Piconets < 1:
		return fmt.Errorf("-piconets %d must be at least 1", s.Piconets)
	}
	return nil
}

// Config is the scatternet campaign of identity c in this shape; callers
// set the aggregation plane, the roll-up and the shard count.
func (s Shape) Config(c Campaign) btpan.ScatternetConfig {
	return btpan.ScatternetConfig{CampaignConfig: c.Config(),
		Piconets: s.Piconets, Bridges: s.Bridges, Topology: s.Topology,
		Redundancy: s.Redundancy, HoldTime: sim.Time(s.Hold) * sim.Second,
		ProbeSample: s.ProbeSample}
}

// String renders the shape for campaign banners.
func (s Shape) String() string {
	name := s.Topology
	if name == "" {
		name = fmt.Sprintf("legacy ring, %d bridge(s)", s.Bridges)
	}
	if s.Redundancy > 1 {
		name += fmt.Sprintf(", %d-redundant", s.Redundancy)
	}
	return fmt.Sprintf("%d piconets, %s topology", s.Piconets, name)
}

// District builds the streaming roll-up campaign a distributed metro
// district of identity c runs, checks that r lies inside its piconets,
// and returns the engine with the district identity agents and sinks
// compare. The effective piconet and bridge counts come from the built
// engine, so two processes given the same flags agree by construction.
func (s Shape) District(c Campaign, r Range) (*scatternet.Campaign, collector.ScatterNet, error) {
	cfg := s.Config(c)
	cfg.Streaming, cfg.Rollup = true, true
	camp, err := btpan.NewScatternetCampaign(cfg)
	if err != nil {
		return nil, collector.ScatterNet{}, err
	}
	if r.Hi > camp.Piconets() {
		return nil, collector.ScatterNet{}, fmt.Errorf("piconet range %d:%d outside the campaign's [0:%d)", r.Lo, r.Hi, camp.Piconets())
	}
	return camp, collector.ScatterNet{Piconets: camp.Piconets(), Bridges: camp.BridgeCount(),
		Topology: s.Topology, Redundancy: s.Redundancy, Hold: cfg.HoldTime,
		ProbeSample: s.ProbeSample}, nil
}

// Range is a half-open piconet range [Lo, Hi), written "A:B" on the
// command line (flag.Value). The zero Range was never set: a set one has
// Hi > Lo >= 0.
type Range struct{ Lo, Hi int }

// String renders the range as "A:B" (flag.Value).
func (r *Range) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// Set parses "A:B" with 0 <= A < B (flag.Value).
func (r *Range) Set(s string) error {
	var lo, hi int
	if _, err := fmt.Sscanf(s, "%d:%d", &lo, &hi); err != nil {
		return fmt.Errorf("%q: want A:B (half-open, e.g. 0:4)", s)
	}
	if lo < 0 || hi <= lo {
		return fmt.Errorf("%q is empty or negative", s)
	}
	r.Lo, r.Hi = lo, hi
	return nil
}

// Req is one condition a flag needs of the chosen mode: OK when the mode
// meets it, Why the rest of the error after the flag's name when it does
// not (e.g. "needs -scatternet").
type Req struct {
	OK  bool
	Why string
}

// Modes maps each flag the chosen mode does not read to why.
type Modes map[string]string

// Need records that flag name needs every req; the first unmet one is the
// error.
func (m Modes) Need(name string, reqs ...Req) {
	for _, r := range reqs {
		if !r.OK {
			m[name] = r.Why
			return
		}
	}
	delete(m, name)
}

// NeedShape records reqs for every flag Shape registers.
func (m Modes) NeedShape(reqs ...Req) {
	for _, name := range shapeFlags {
		m.Need(name, reqs...)
	}
}

// Check returns a one-line error naming the first flag set on fs, in
// lexical order, that the chosen mode does not read.
func (m Modes) Check(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if why, ok := m[f.Name]; ok && err == nil {
			err = fmt.Errorf("-%s %s", f.Name, why)
		}
	})
	return err
}

// SetSpec applies a comma-separated key=value SPEC to fs, each pair with
// fs.Set, so a SPEC field parses exactly like the flag of the same name.
// A key fs does not define is an unknown field, and every required key
// must be given.
func SetSpec(fs *flag.FlagSet, spec string, required ...string) error {
	for _, pair := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(pair, "=")
		switch {
		case !ok:
			return fmt.Errorf("%q is not key=value", pair)
		case fs.Lookup(k) == nil:
			return fmt.Errorf("unknown field %q", k)
		}
		if err := fs.Set(k, v); err != nil {
			return fmt.Errorf("field %q: %v", k, err)
		}
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, k := range required {
		if !set[k] {
			keys := strings.Join(required, "=, ") + "="
			if i := strings.LastIndex(keys, ", "); i >= 0 {
				keys = keys[:i] + " and " + keys[i+2:]
			}
			return fmt.Errorf("%s are required", keys)
		}
	}
	return nil
}
