package btpan

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/scatternet"
	"repro/internal/sim"
)

// Topology names for ScatternetConfig.Topology. The empty string pairs
// Bridges bridges around the ring (bridge b serves b mod P, (b+1) mod P).
const (
	// TopologyRing is the canonical ring: one bridge per ring edge.
	TopologyRing = "ring"
	// TopologyStar hangs every piconet off hub piconet 0 (minimal depth-2).
	TopologyStar = "star"
	// TopologyMesh bridges every piconet pair directly (all routes depth 1).
	TopologyMesh = "mesh"
	// TopologyRandom is a seeded random connected graph over Bridges bridges.
	TopologyRandom = "random"
)

// ScatternetConfig configures a multi-piconet scatternet campaign: the
// embedded CampaignConfig supplies the per-piconet campaign knobs (seed,
// duration, scenario, aggregation plane) and the topology fields describe
// the bridged composition. A {Piconets: 1, Bridges: 0} scatternet is the
// classic single-piconet campaign — bit-identical on a fixed seed (see
// TestScatternetOnePiconetEquivalence).
type ScatternetConfig struct {
	CampaignConfig
	// Piconets is the number of composed piconet campaigns (>= 1).
	// Piconet 0 runs on the root seed unchanged; piconet p > 0 derives
	// scatternet.PiconetSeed(Seed, p).
	Piconets int
	// Bridges is the number of bridge nodes. With the default (empty)
	// topology, bridge b serves the ring pair (b mod Piconets, (b+1) mod
	// Piconets); with TopologyRandom it is the random graph's edge budget
	// (>= Piconets-1). Ring/star/mesh topologies dictate their own bridge
	// count and ignore it.
	Bridges int
	// Topology selects a built-in membership-map generator (TopologyRing,
	// TopologyStar, TopologyMesh, TopologyRandom). Empty selects the
	// ring-pair composition driven by Piconets/Bridges.
	Topology string
	// Members is an explicit bridge→piconet membership map (Members[b]
	// lists the piconets bridge b serves); it overrides Topology/Bridges.
	Members [][]int
	// Redundancy deploys K bridges per span instead of one (K <= 1 keeps
	// single bridges): every span becomes a redundancy group whose
	// correlated outage is charged only while all K bridges are down.
	Redundancy int
	// HoldTime is the bridge residency per piconet visit (default 10 s).
	HoldTime sim.Time
	// RelayEvery is the mean relay-SDU inter-arrival per directed
	// inter-piconet flow (default 30 s).
	RelayEvery sim.Time
	// RelayBytes is the relayed SDU size (default 1024).
	RelayBytes int
	// ProbeSample samples the relay probe plane over a seeded subset of
	// ordered piconet pairs: each pair is kept with this independent
	// probability, deterministically per seed. 0 (default) and 1 probe
	// every pair — the exhaustive plane, byte-identical to pre-sampling
	// runs. Sampling never perturbs the data plane; the delay-vs-depth
	// probe counts scale back by 1/fraction (Horvitz–Thompson) while the
	// delay moments are unbiased. City-scale runs want roughly
	// 4/(Piconets-1), keeping ~4·Piconets pairs.
	ProbeSample float64
	// Rollup (requires Streaming) folds every finished piconet into
	// per-shard partials merged hierarchically into one metro-wide report
	// (ScatternetResult.Rollup) and drops the per-piconet results, keeping
	// live memory flat in Piconets. Report bytes are shard-count invariant.
	Rollup bool
}

// topology resolves the configured membership map.
func (c ScatternetConfig) topology() (*scatternet.Topology, error) {
	var topo scatternet.Topology
	switch {
	case c.Members != nil:
		topo = scatternet.Topology{Piconets: c.Piconets, Members: c.Members}
	case c.Topology == "" && c.Bridges < 0:
		return nil, fmt.Errorf("btpan: negative bridge count %d", c.Bridges)
	case c.Topology == "" && c.Bridges > 0 && c.Piconets < 2:
		return nil, fmt.Errorf("btpan: %d bridge(s) need at least two piconets to connect", c.Bridges)
	case c.Topology == "":
		topo = scatternet.RingBridges(c.Piconets, c.Bridges)
	case c.Topology == TopologyRing:
		topo = scatternet.Ring(c.Piconets)
	case c.Topology == TopologyStar:
		topo = scatternet.Star(c.Piconets)
	case c.Topology == TopologyMesh:
		topo = scatternet.Mesh(c.Piconets)
	case c.Topology == TopologyRandom:
		var err error
		topo, err = scatternet.RandomConnected(c.Piconets, c.Bridges, c.Seed)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("btpan: unknown topology %q (want %s, %s, %s or %s)",
			c.Topology, TopologyRing, TopologyStar, TopologyMesh, TopologyRandom)
	}
	topo = topo.WithRedundancy(c.Redundancy)
	return &topo, nil
}

// internalConfig maps the public config onto the scatternet engine's.
func (c ScatternetConfig) internalConfig() (scatternet.Config, error) {
	topo, err := c.topology()
	if err != nil {
		return scatternet.Config{}, err
	}
	cfg := scatternet.Config{
		Seed:              c.Seed,
		Duration:          c.Duration,
		Scenario:          c.Scenario,
		Topology:          topo,
		HoldTime:          c.HoldTime,
		RelayEvery:        c.RelayEvery,
		RelayBytes:        c.RelayBytes,
		ProbePairFraction: c.ProbeSample,
		Streaming:         c.Streaming,
		FlushEvery:        c.FlushEvery,
		Rollup:            c.Rollup,
		Parallelism:       c.Parallelism,
	}
	return cfg, nil
}

// Validate reports configuration errors.
func (c ScatternetConfig) Validate() error {
	cfg, err := c.internalConfig()
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// ScatternetResult bundles a finished scatternet campaign: one full
// CampaignResult per piconet (every table/figure method answers per
// piconet) plus the bridge-attributed failure-coupling, delay-vs-relay-depth
// and redundancy aggregates.
type ScatternetResult struct {
	Config ScatternetConfig
	// Piconets holds the per-piconet campaign results in topology order;
	// Piconets[0] is the classic campaign of the root seed.
	Piconets []*CampaignResult
	// Topology is the effective membership map the campaign ran.
	Topology scatternet.Topology
	// Bridges attributes inter-piconet traffic and correlated outages to
	// the bridge nodes (empty table when the campaign had no bridges).
	Bridges *analysis.BridgeTable
	// RelayDepth is the delay-vs-relay-depth table from the multi-hop
	// relay probe plane (empty without bridges).
	RelayDepth *analysis.RelayDepthAccum
	// Redundancy is the per-span redundancy table: correlated outages are
	// charged only while every bridge of a span is down at once, compared
	// against the independent-failure model (empty without bridges).
	Redundancy *analysis.RedundancyTable
	// Rollup is the hierarchical metro-wide roll-up (Rollup mode only):
	// deployment-wide Table 2/3/4, the per-piconet overview, the
	// all-bridge summary and the sampled delay-vs-depth table. Piconets is
	// empty in this mode — the per-piconet results were folded and dropped
	// to keep memory flat.
	Rollup *analysis.ScatternetRollup
}

// NewScatternetCampaign validates the config and builds the underlying
// campaign engine without running it — the distributed-agent entry point,
// where a process owns only a piconet slice and drives PiconetPartial /
// RunOverlay itself instead of Run.
func NewScatternetCampaign(cfg ScatternetConfig) (*scatternet.Campaign, error) {
	engineCfg, err := cfg.internalConfig()
	if err != nil {
		return nil, err
	}
	return scatternet.New(engineCfg)
}

// RunScatternet builds and runs the scatternet campaign: every piconet is a
// full two-testbed paper campaign in its own simulation world, and the
// bridge overlay carries relayed inter-piconet traffic through the real
// stack path, failing through the standard recovery cascade. Piconets and
// the overlay are independent simulations, so they run concurrently with
// bit-identical results for any Parallelism.
func RunScatternet(cfg ScatternetConfig) (*ScatternetResult, error) {
	engineCfg, err := cfg.internalConfig()
	if err != nil {
		return nil, err
	}
	camp, err := scatternet.New(engineCfg)
	if err != nil {
		return nil, err
	}
	res, err := camp.Run()
	if err != nil {
		return nil, err
	}
	out := &ScatternetResult{
		Config:     cfg,
		Topology:   res.Topology,
		Bridges:    res.Bridges,
		RelayDepth: res.RelayDepth,
		Redundancy: res.Redundancy,
		Rollup:     res.Rollup,
	}
	for _, pic := range res.Piconets {
		picCfg := cfg.CampaignConfig
		picCfg.Seed = scatternet.PiconetSeed(cfg.Seed, pic.Index)
		out.Piconets = append(out.Piconets, &CampaignResult{
			Config:    picCfg,
			Random:    pic.Random,
			Realistic: pic.Realistic,
			Agg:       pic.Agg,
		})
	}
	return out, nil
}

// Overview lines up every piconet's dataset sizes and dependability column.
// In rollup mode the per-piconet results were folded and dropped, so the
// overview comes from the roll-up instead.
func (r *ScatternetResult) Overview() *analysis.PiconetOverview {
	if len(r.Piconets) == 0 && r.Rollup != nil {
		return r.Rollup.Overview
	}
	o := &analysis.PiconetOverview{}
	for p, pic := range r.Piconets {
		u, s, _ := pic.DataItems()
		o.Rows = append(o.Rows, analysis.PiconetRow{
			Piconet:       p,
			UserReports:   u,
			SystemEntries: s,
			Depend:        pic.Dependability(),
		})
	}
	return o
}
