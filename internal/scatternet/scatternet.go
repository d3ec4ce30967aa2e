// Package scatternet composes the paper's single-piconet testbeds into a
// bridged multi-piconet topology — the scenario the paper's taxonomy lacks
// and scatternet studies need (BlueSky, arXiv:1308.2950; Bluetooth-mesh
// reliability, arXiv:1910.03345): large Bluetooth networks live or die by
// the behavior of the bridge nodes that time-share membership across
// piconets.
//
// The shape of the composition is an explicit Topology: a bridge→piconet
// membership map with built-in generators (Ring, Star, Mesh,
// RandomConnected), validation and connectivity checking, deterministic BFS
// relay routing (Route), and redundancy replication (WithRedundancy —
// K bridges per span, with correlated outages charged only while all K are
// down at once). On top of the data plane, a passive probe plane walks
// multi-hop routes and produces the delay-vs-relay-depth table.
//
// The composition keeps the repo's determinism architecture intact:
//
//   - Each piconet is a full paper campaign (random + realistic testbed
//     pair, built by testbed.NewCampaign) running in its own simulation
//     world. Piconet 0 uses the scatternet's root seed unchanged, so a
//     1-piconet scatternet is bit-identical to the classic single-piconet
//     campaign, and adding piconets or bridges never perturbs another
//     piconet's tables (no state crosses world boundaries).
//   - Bridges live in one additional overlay world together with a NAP-side
//     anchor per piconet. A bridge is a complete stack.Host built from the
//     device catalogue; it attaches to one piconet at a time on a hold-time
//     rotation, carries relayed SDUs through the real HCI → L2CAP → BNEP →
//     PAN path over its radio link, and fails through the same
//     device/recovery processes as any testbed node. A bridge failure takes
//     the inter-piconet service of every piconet it serves down for the
//     recovery TTR — the correlated outage the analysis attributes per
//     bridge and per piconet (analysis.BridgeTable).
//
// All aggregation is streaming-compatible: per-piconet tables come from one
// analysis.Streamer per piconet and the bridge accumulators are O(1) by
// construction, so month-scale scatternet campaigns run in constant memory.
//
// The execution model is sharded for city scale (10³ piconets): the piconet
// index space is partitioned into Parallelism contiguous ranges, each run by
// one worker that lazily builds, runs and — in Rollup mode — folds one
// piconet world at a time, so live memory is O(Parallelism), not
// O(Piconets). Relay probing samples a seeded subset of ordered pairs
// (ProbePairFraction) to flatten the O(P²) probe wall, and the hierarchical
// roll-up merges per-shard partials into one metro-wide report whose bytes
// are shard-count invariant. The overlay deliberately stays a single world:
// bridges share the NAP anchors and the connection-handle sequence, so
// splitting it would change results. It is O(bridges), not O(P²), but with
// exhaustive probes it can outlast the piconet plane, so while it runs it
// keeps one P to itself and the shard workers share the rest.
package scatternet

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/testbed"
)

// Defaults for the bridge overlay knobs.
const (
	// DefaultHoldTime is the bridge residency per piconet visit.
	DefaultHoldTime = 10 * sim.Second
	// DefaultRelayEvery is the mean inter-arrival of relay SDUs per
	// directed inter-piconet flow.
	DefaultRelayEvery = 30 * sim.Second
	// DefaultRelayBytes is the relayed SDU size (a bulk BNEP payload).
	DefaultRelayBytes = 1024
	// DefaultQueueCap bounds each store-and-forward queue so overlay
	// memory stays O(1) even when a bridge is down for a long recovery.
	DefaultQueueCap = 64
	// DefaultRelayProbeEvery is the mean inter-arrival of multi-hop relay
	// probes per ordered piconet pair.
	DefaultRelayProbeEvery = 60 * sim.Second
)

// Config describes one scatternet campaign.
type Config struct {
	// Seed roots all randomness; piconet p derives PiconetSeed(Seed, p) and
	// the bridge overlay derives its own independent world seed.
	Seed uint64
	// Duration is the virtual observation window.
	Duration sim.Time
	// Scenario selects the recovery regime for piconet nodes and bridges.
	Scenario recovery.Scenario
	// Topology is the bridge→piconet membership map (required); it
	// dictates the piconet and bridge counts.
	Topology *Topology
	// HoldTime is the bridge residency per piconet visit (default 10 s):
	// at every multiple of HoldTime a bridge detaches from its current
	// piconet and attaches to the next one it serves.
	HoldTime sim.Time
	// RelayEvery is the mean inter-arrival of relay SDUs per directed
	// inter-piconet flow (default 30 s, exponential).
	RelayEvery sim.Time
	// RelayBytes is the relayed SDU size (default 1024).
	RelayBytes int
	// QueueCap bounds each per-destination store-and-forward queue
	// (default 64); arrivals beyond it are counted as queue drops.
	QueueCap int
	// RelayProbeEvery is the mean inter-arrival of multi-hop relay probes
	// per sampled ordered piconet pair (default 60 s). Probes walk the
	// topology's minimum-hop route analytically — they read bridge state
	// but never perturb it — and feed the delay-vs-relay-depth table.
	RelayProbeEvery sim.Time
	// ProbePairFraction samples the relay probe plane over a seeded subset
	// of ordered piconet pairs: each pair is kept with this independent
	// probability, drawn deterministically from the campaign seed (see
	// samplePairs). 0 (the unset default) and 1 probe every pair — the
	// exhaustive pre-sampling plane, byte-identical. Sampling cannot
	// perturb the data plane, and the delay-vs-depth table's probe counts
	// scale back by 1/fraction (analysis.RelayDepthAccum.EstimatedProbes,
	// Horvitz–Thompson) while the delay moments are unbiased as sampled.
	// City-scale runs want roughly 4·Piconets kept pairs, i.e. a fraction
	// around 4/(Piconets-1) — the O(P²) probe wall flattened to O(P).
	ProbePairFraction float64
	// Streaming folds each piconet's records into running aggregates as
	// they are collected (O(1) memory in campaign length), exactly like
	// the single-piconet streaming plane.
	Streaming bool
	// FlushEvery is the streaming drain cadence (default one virtual hour).
	FlushEvery sim.Time
	// Rollup (requires Streaming) folds every finished piconet into its
	// shard's partial — merged hierarchically into Result.Rollup, the one
	// metro-wide report — and drops the per-piconet results, so live
	// memory stays flat in Piconets (Result.Piconets comes back nil).
	Rollup bool
	// Parallelism is the piconet plane's shard count: piconets are
	// partitioned into that many contiguous index ranges, each processed
	// in ascending order by one worker goroutine that lazily builds, runs
	// and (in rollup mode) folds one piconet world at a time, while the
	// bridge overlay — a single world by construction, bridges share NAP
	// anchors — runs concurrently on a P of its own (at most
	// GOMAXPROCS-1 workers run a piconet until the overlay is done). 0
	// means GOMAXPROCS, capped at Piconets; 1 runs every piconet in index
	// order on one worker. Any value produces identical results: no state
	// crosses a world boundary until everything has finished, and the
	// roll-up's merge is shard-count invariant (pinned by the golden
	// equivalence and merge-law suites).
	Parallelism int

	// MutateBridgeHost adjusts bridge host configurations before the
	// overlay is built (fault-forcing hook for tests).
	MutateBridgeHost func(bridge string, cfg *stack.Config)
	// OnBridgeHop observes completed residency switches (test hook; must
	// not retain references past the call).
	OnBridgeHop func(bridge string, at sim.Time, piconet int)
}

// withDefaults fills the zero-value knobs.
func (c Config) withDefaults() Config {
	if c.HoldTime == 0 {
		c.HoldTime = DefaultHoldTime
	}
	if c.RelayEvery == 0 {
		c.RelayEvery = DefaultRelayEvery
	}
	if c.RelayBytes == 0 {
		c.RelayBytes = DefaultRelayBytes
	}
	if c.QueueCap == 0 {
		c.QueueCap = DefaultQueueCap
	}
	if c.RelayProbeEvery == 0 {
		c.RelayProbeEvery = DefaultRelayProbeEvery
	}
	if c.FlushEvery == 0 {
		c.FlushEvery = sim.Hour
	}
	return c
}

// Validate reports configuration errors (on the defaulted view, so a zero
// HoldTime is filled in, not rejected).
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("scatternet: non-positive campaign duration")
	case c.Scenario < recovery.ScenarioRebootOnly || c.Scenario > recovery.ScenarioSIRAsMasking:
		return fmt.Errorf("scatternet: unknown scenario %d", c.Scenario)
	case c.HoldTime <= 0:
		return fmt.Errorf("scatternet: non-positive bridge hold time")
	case c.RelayEvery <= 0:
		return fmt.Errorf("scatternet: non-positive relay inter-arrival time")
	case c.RelayProbeEvery <= 0:
		return fmt.Errorf("scatternet: non-positive relay probe inter-arrival time")
	case c.RelayBytes <= 0:
		return fmt.Errorf("scatternet: non-positive relay SDU size")
	case c.QueueCap <= 0:
		return fmt.Errorf("scatternet: non-positive relay queue capacity")
	case c.FlushEvery < 0:
		return fmt.Errorf("scatternet: negative streaming flush interval")
	case math.IsNaN(c.ProbePairFraction):
		return fmt.Errorf("scatternet: probe pair fraction is NaN (want a fraction in [0, 1]; 0 = unset = exhaustive)")
	case c.ProbePairFraction < 0 || c.ProbePairFraction > 1:
		return fmt.Errorf("scatternet: probe pair fraction %v outside [0, 1]", c.ProbePairFraction)
	case c.Rollup && !c.Streaming:
		return fmt.Errorf("scatternet: hierarchical roll-up requires the streaming plane")
	case c.Parallelism < 0:
		return fmt.Errorf("scatternet: negative parallelism")
	}
	if c.Topology == nil {
		return fmt.Errorf("scatternet: no topology")
	}
	return c.Topology.Validate()
}

// PiconetSeed derives piconet p's campaign seed. Piconet 0 keeps the root
// seed unchanged — the 1-piconet ≡ single-piconet bit-identity guarantee —
// and later piconets decorrelate through a golden-ratio multiply.
func PiconetSeed(seed uint64, p int) uint64 {
	if p == 0 {
		return seed
	}
	return seed ^ (uint64(p) * 0x9E3779B97F4A7C15)
}

// Piconet is one composed piconet's collected data.
type Piconet struct {
	// Index is the piconet's position in the scatternet.
	Index int
	// Random / Realistic are the piconet's testbed results (light parts
	// only in streaming mode, as in the single-piconet campaign).
	Random, Realistic *testbed.Results
	// Agg is the piconet's streaming aggregation state (nil when retained).
	Agg *analysis.Aggregates
}

// Result bundles a finished scatternet campaign.
type Result struct {
	Config Config
	// Piconets holds the per-piconet collected data (nil in rollup mode —
	// the per-piconet results are folded into Rollup and dropped as each
	// piconet finishes, which is what keeps live memory flat in Piconets).
	Piconets []*Piconet
	// Topology is the effective bridge→piconet membership map the campaign
	// ran.
	Topology Topology
	// Bridges is the bridge-attributed aggregate (empty table when the
	// campaign had no bridges).
	Bridges *analysis.BridgeTable
	// RelayDepth is the delay-vs-relay-depth aggregate from the multi-hop
	// probe plane (empty when the campaign had no bridges).
	RelayDepth *analysis.RelayDepthAccum
	// Redundancy is the per-span redundancy aggregate: one row per group of
	// bridges serving the same piconet set (empty table without bridges).
	Redundancy *analysis.RedundancyTable
	// Rollup is the hierarchical metro-wide roll-up (rollup mode only):
	// deployment Table 2/3/4 merged across every piconet, the per-piconet
	// overview, the all-bridge summary and the sampled delay-vs-depth
	// table. Its bytes are shard-count invariant.
	Rollup *analysis.ScatternetRollup
}

// Campaign is a live scatternet: the piconet plane (testbed pairs built
// lazily, one per shard worker at a time) plus the bridge overlay.
type Campaign struct {
	cfg     Config
	topo    Topology
	overlay *overlay
}

// New assembles the scatternet: the topology and, when it deploys
// bridges, the overlay world with its bridge hosts and per-piconet NAP
// anchors. Piconet worlds are NOT built here — each shard worker constructs
// its piconets one at a time during Run (testbed.NewCampaign per piconet,
// each on its own allocation-free event kernel), so a 10³-piconet campaign never
// holds more than Parallelism piconet worlds live at once.
func New(cfg Config) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := *cfg.Topology
	c := &Campaign{cfg: cfg, topo: topo}
	if topo.Bridges() > 0 {
		c.overlay = newOverlay(cfg, topo)
	}
	return c, nil
}

// shardCount resolves the piconet plane's worker count.
func (c *Campaign) shardCount() int {
	s := c.cfg.Parallelism
	if s <= 0 {
		s = runtime.GOMAXPROCS(0)
	}
	if s > c.topo.Piconets {
		s = c.topo.Piconets
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardState is one shard worker's output: the retained piconet results, or
// (rollup mode) the fold its piconets were absorbed into.
type shardState struct {
	piconets []*Piconet
	fold     *analysis.ScatternetFold
	err      error
}

// Run drives the piconet plane and the bridge overlay for the configured
// duration and gathers the results. Piconets are partitioned into
// shardCount contiguous index ranges; each shard worker lazily builds, runs
// and folds its piconets in ascending order while the overlay — one
// independent world — runs concurrently with a P reserved for it. Every
// simulation owns its kernel, RNG rig, hosts and logs, so no state crosses
// a world boundary until everything has finished and the results are
// identical for any shard count.
func (c *Campaign) Run() (*Result, error) {
	res := &Result{
		Config:     c.cfg,
		Topology:   c.topo,
		Bridges:    &analysis.BridgeTable{},
		RelayDepth: analysis.NewRelayDepthAccum(),
		Redundancy: &analysis.RedundancyTable{},
	}
	shards := c.shardCount()
	states := make([]shardState, shards)
	bounds := func(s int) (lo, hi int) {
		return s * c.topo.Piconets / shards, (s + 1) * c.topo.Piconets / shards
	}
	// The overlay is one sequential world, so while it runs it keeps a P
	// to itself and the shard workers take turns on the others, one gate
	// token per piconet; once it is done they get every P. With more
	// runnable goroutines than Ps, how long the overlay takes would hang
	// on how the scheduler shares them.
	gate := make(chan struct{}, shards)
	running := shards
	if c.overlay != nil {
		running = max(1, min(shards, runtime.GOMAXPROCS(0)-1))
	}
	for i := 0; i < running; i++ {
		gate <- struct{}{}
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := bounds(s)
			states[s] = c.runShard(lo, hi, gate)
		}(s)
	}
	if c.overlay != nil {
		c.overlay.Run(c.cfg.Duration)
		for i := running; i < shards; i++ {
			gate <- struct{}{}
		}
	}
	wg.Wait()
	for _, st := range states {
		if st.err != nil {
			return nil, st.err
		}
	}
	if c.overlay != nil {
		res.Bridges = c.overlay.Table()
		res.RelayDepth = c.overlay.prober.acc
		res.Redundancy = c.overlay.RedundancyTable(c.cfg.Duration)
	}
	if c.cfg.Rollup {
		roll, err := c.rollup(states, res)
		if err != nil {
			return nil, err
		}
		res.Rollup = roll
		return res, nil
	}
	for _, st := range states {
		res.Piconets = append(res.Piconets, st.piconets...)
	}
	return res, nil
}

// runShard builds, runs and collects piconets [lo, hi) in ascending order,
// holding a token from gate while it runs a piconet.
// In rollup mode each finished piconet folds into the shard's partial and
// is dropped immediately, so the shard's live state is one piconet world
// plus O(1) fold accumulators regardless of its range size.
func (c *Campaign) runShard(lo, hi int, gate chan struct{}) shardState {
	var st shardState
	if c.cfg.Rollup {
		st.fold = analysis.NewScatternetFold(c.cfg.Scenario.String())
	}
	for p := lo; p < hi; p++ {
		<-gate
		pic, trace, err := c.runPiconet(p)
		gate <- struct{}{}
		if err != nil {
			st.err = err
			return st
		}
		if c.cfg.Rollup {
			if err := st.fold.AddPiconet(p, pic.Agg, trace); err != nil {
				st.err = err
				return st
			}
			continue
		}
		st.piconets = append(st.piconets, pic)
	}
	return st
}

// runPiconet lazily builds and runs one piconet's testbed pair on the
// configured plane. The control flow mirrors the single-piconet campaign
// runner exactly, so piconet 0's outputs are bit-identical to it; both
// testbeds run sequentially on the shard worker's goroutine (parallelism
// comes from sharding the piconet space, and the sequential testbed paths
// produce results identical to the goroutine-per-testbed ones). In rollup
// mode the streamer also records the depend trace the metro fold
// re-interleaves.
func (c *Campaign) runPiconet(p int) (*Piconet, []analysis.DependEvent, error) {
	pair, err := testbed.NewCampaign(PiconetSeed(c.cfg.Seed, p), c.cfg.Scenario, nil)
	if err != nil {
		return nil, nil, err
	}
	pic := &Piconet{Index: p}
	if !c.cfg.Streaming {
		pic.Random, pic.Realistic = pair.RunSequential(c.cfg.Duration)
		return pic, nil, nil
	}
	spec := pair.StreamSpec()
	if c.cfg.Rollup {
		spec.TraceDepend = true
	}
	s, err := analysis.NewStreamer(spec)
	if err != nil {
		return nil, nil, err
	}
	pic.Random, pic.Realistic = pair.RunStreamingSequential(c.cfg.Duration, c.cfg.FlushEvery, s)
	pic.Agg = s.Finalize()
	if c.cfg.Rollup {
		// Every piconet pair uses the same testbed/node roster, so the
		// survival accumulators of two piconets would collide on their
		// open-stream keys when the fold merges them: close every open
		// uptime interval at the campaign horizon first (exact — the
		// horizon is where a lone campaign would censor them anyway).
		pic.Agg.Surv.Censor(c.cfg.Duration)
	}
	return pic, s.DependTrace(), nil
}

// rollup merges the shard partials into the metro-wide report: the folds
// merge in ascending shard order (exact, so the grouping cannot show), the
// all-bridge summary row merges the bridge rows in row order, and the
// relay-depth table merges the prober's per-source partials in ascending
// source order — every combination order is fixed by the campaign, not by
// the sharding, which is what makes the report bytes shard-count invariant.
func (c *Campaign) rollup(states []shardState, res *Result) (*analysis.ScatternetRollup, error) {
	fold := states[0].fold
	for _, st := range states[1:] {
		if err := fold.Merge(st.fold); err != nil {
			return nil, err
		}
	}
	agg, overview, err := fold.Finalize()
	if err != nil {
		return nil, err
	}
	roll := &analysis.ScatternetRollup{
		Piconets:          c.topo.Piconets,
		Scenario:          c.cfg.Scenario.String(),
		Agg:               agg,
		Overview:          overview,
		ProbePairFraction: probeFraction(c.cfg.ProbePairFraction),
	}
	if c.overlay != nil {
		if rows := res.Bridges.Rows; len(rows) > 0 {
			sum := analysis.NewBridgeAccum("all", "-", nil)
			for _, r := range rows {
				sum.Merge(r)
			}
			roll.Bridges, roll.BridgeCount = sum, len(rows)
		}
		rd := analysis.NewRelayDepthAccum()
		for _, a := range c.overlay.prober.bySrc {
			rd.Merge(a)
		}
		roll.RelayDepth = rd
	}
	return roll, nil
}

// probeFraction normalizes the configured sampling fraction for reporting
// (0, the unset default, means exhaustive — fraction 1).
func probeFraction(f float64) float64 {
	if f <= 0 || f >= 1 {
		return 1
	}
	return f
}
