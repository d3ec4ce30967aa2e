// Command btagent runs one testbed shard of a distributed collection
// campaign: it builds the shard's simulated testbed (the same seed
// derivation a single-process campaign uses, so the shard is bit-identical
// to the corresponding testbed of `btcampaign -stream` at the same seed),
// drains every node's Test/System logs on the virtual flush cadence, and
// streams them to a btsink repository as sequenced binary batch frames over
// TCP.
//
// Delivery is at-least-once: batches stay buffered until the sink
// acknowledges them, connection losses reconnect (with capped, jittered
// exponential backoff) and resume from the sink's handshake cursors, and
// acknowledgement stalls trigger go-back-N retransmission — so the campaign
// survives sink restarts and (with the fault-injection knobs) deterministic
// frame loss, duplication, reordering and delay on the data path.
//
// With -spill-dir the agent itself survives kill -9: every encoded batch
// frame is appended to a write-ahead spill log before it is offered to the
// uplink, and a restarted agent with the same flags replays the
// unacknowledged tail while its deterministic re-run regenerates — and
// skips — everything already assigned a sequence number, so the campaign
// report stays byte-identical to an uninterrupted run. See PROTOCOL.md for
// the wire and WAL formats and OPERATIONS.md for the crash matrix.
//
// Failure records carry their taxonomy tags (protocol phase + transience
// verdict) from the moment the workload emits them, so the agent needs no
// flag for the taxonomy plane: the binary codec (v2) and the JSON codec both
// ship the tags, and the sink's accumulators see exactly what a
// single-process campaign sees.
//
// Usage:
//
//	btagent -sink HOST:PORT -testbed random|realistic [flags]
//
// Flags:
//
//	-sink ADDR       sink address (default 127.0.0.1:9310)
//	-keyspace K      campaign keyspace on a multi-tenant sink (default "":
//	                 the sink's default keyspace). Retryable rejects —
//	                 unknown-campaign, over-quota, draining — make the agent
//	                 back off and retry; fatal ones (campaign-mismatch,
//	                 unknown-shard) end it with an error.
//	-testbed T       shard to run: random or realistic (required)
//	-seed N          campaign seed (default 1); must match the sink's
//	-days D          virtual campaign days 1..540 (default 4); must match
//	-scenario 1..4   recovery regime (default 3); must match the sink's
//	-flush S         virtual seconds between log drains (default 3600)
//	-codec C         data frame codec: binary or json (default binary)
//	-timeout D       how long Finish waits for the sink's completion
//	                 confirmation, e.g. 5m (default 10m; 0 waits forever;
//	                 negative is rejected)
//	-spill-dir DIR   write-ahead spill log directory; restart with the same
//	                 directory to resume after a crash (empty disables)
//	-spill-budget N  max bytes of unacknowledged spill before the agent
//	                 fails loudly (default 0: unbounded; negative is rejected)
//	-drop P          fault injection: P(drop) per data frame (default 0)
//	-dup P           fault injection: P(duplicate) per data frame (default 0)
//	-reorder P       fault injection: P(swap with next frame) (default 0)
//	-delay D         fault injection: delay imposed on a delay decision
//	                 (default 0; negative is rejected)
//	-delay-rate P    fault injection: P(delay) per data frame (default 0)
//	-fault-seed N    fault injection decision seed (default 1)
//
// Each fault probability must lie in [0, 1]; NaN is rejected.
//
// Scatternet mode (-scatternet) turns the agent into one district shard of
// a distributed metro campaign: it owns the contiguous piconet range
// -piconet-range A:B of a -piconets P scatternet, runs each piconet world
// to completion (deterministic in (seed, piconet), so no spill log is
// needed — a restarted agent re-runs past the sink's resume cursor and
// regenerates byte-identical partials) and ships one fold partial per
// piconet to the district sink as a kind-8 frame, stop-and-wait under
// cumulative acks. The range that starts at piconet 0 additionally runs the
// bridge overlay and ships its pre-merged rollup partial last. The topology
// flags (-piconets -bridges -topology -redundancy -hold -probe-sample) must
// match the sink's district declaration exactly; a mismatch is a fatal
// typed reject. The fault-injection knobs apply to kind-8 frames too.
//
//	-scatternet          run a scatternet district shard
//	-piconet-range A:B   piconet range [A, B) this agent owns (required;
//	                     exactly its district's range= at the sink)
//	-piconets P          scatternet piconet count (default 2)
//	-bridges K           bridge count / random edge budget (default 1)
//	-topology T          ring, star, mesh, random; empty pairs bridge b with
//	                     piconets b and b+1 mod P
//	-redundancy K        bridges per span (default 1)
//	-hold S              bridge residency seconds per visit (default 10)
//	-probe-sample F      relay-probe pair sampling fraction in (0, 1]
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	btpan "repro"
	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

func main() {
	sinkAddr := flag.String("sink", "127.0.0.1:9310", "sink address")
	keyspace := flag.String("keyspace", "", "campaign keyspace on a multi-tenant sink")
	shard := flag.String("testbed", "", "testbed shard: random or realistic")
	seed := flag.Uint64("seed", 1, "campaign seed (must match the sink)")
	days := flag.Int("days", 4, "virtual campaign days 1..540 (must match the sink)")
	scenario := flag.Int("scenario", int(btpan.ScenarioSIRAs),
		"recovery scenario 1..4 (must match the sink)")
	flush := flag.Int("flush", 3600, "virtual seconds between log drains")
	codecName := flag.String("codec", "binary", "data frame codec: binary or json")
	timeout := flag.Duration("timeout", 10*time.Minute, "completion confirmation timeout (0 = forever)")
	spillDir := flag.String("spill-dir", "", "write-ahead spill log directory (empty disables crash tolerance)")
	spillBudget := flag.Int64("spill-budget", 0, "max bytes of unacknowledged spill (0 = unbounded)")
	drop := flag.Float64("drop", 0, "fault injection: drop probability per data frame")
	dup := flag.Float64("dup", 0, "fault injection: duplicate probability per data frame")
	reorder := flag.Float64("reorder", 0, "fault injection: reorder probability per data frame")
	delay := flag.Duration("delay", 0, "fault injection: delay imposed on a delay decision")
	delayRate := flag.Float64("delay-rate", 0, "fault injection: delay probability per data frame")
	faultSeed := flag.Uint64("fault-seed", 1, "fault injection decision seed")
	scat := flag.Bool("scatternet", false, "run a scatternet district shard")
	piconetRange := flag.String("piconet-range", "", "piconet range A:B owned by this shard (with -scatternet)")
	piconets := flag.Int("piconets", 2, "scatternet piconet count (with -scatternet)")
	bridges := flag.Int("bridges", 1, "scatternet bridge count / random edge budget (with -scatternet)")
	topology := flag.String("topology", "", "scatternet membership map: ring, star, mesh or random (with -scatternet)")
	redundancy := flag.Int("redundancy", 1, "bridges per span (with -scatternet)")
	hold := flag.Int("hold", 10, "bridge residency seconds per piconet visit (with -scatternet)")
	probeSample := flag.Float64("probe-sample", 1, "relay-probe pair sampling fraction in (0, 1] (with -scatternet)")
	flag.Parse()

	if *days < 1 || *days > 540 {
		fatal(fmt.Errorf("-days %d out of range 1..540", *days))
	}
	if *scenario < 1 || *scenario > 4 {
		fatal(fmt.Errorf("-scenario %d out of range 1..4", *scenario))
	}
	if *flush < 1 {
		fatal(fmt.Errorf("-flush %d must be at least one virtual second", *flush))
	}
	codec, err := collector.ParseCodec(*codecName)
	if err != nil {
		fatal(err)
	}
	duration := sim.Time(*days) * sim.Day
	fault := collector.FaultConfig{
		Seed: *faultSeed, Drop: *drop, Duplicate: *dup, Reorder: *reorder,
		Delay: *delay, DelayRate: *delayRate,
	}
	if err := checkLimits(fault, *timeout); err != nil {
		fatal(err)
	}

	if *scat {
		if *spillDir != "" {
			fatal(fmt.Errorf("-spill-dir is the flat agent's WAL; scatternet shards need none " +
				"(piconet worlds are deterministic and re-run past the sink's resume cursor)"))
		}
		runScatternetShard(scatShardConfig{
			sink: *sinkAddr, keyspace: *keyspace, seed: *seed, duration: duration,
			scenario: btpan.Scenario(*scenario), piconetRange: *piconetRange,
			piconets: *piconets, bridges: *bridges, topology: *topology,
			redundancy: *redundancy, hold: sim.Time(*hold) * sim.Second,
			probeSample: *probeSample, fault: fault,
		})
		return
	}

	randomOpts, realisticOpts := testbed.CampaignOptions(*seed, btpan.Scenario(*scenario), duration)
	var opts testbed.Options
	switch *shard {
	case "random":
		opts = randomOpts
	case "realistic":
		opts = realisticOpts
	default:
		fatal(fmt.Errorf("-testbed %q: want random or realistic", *shard))
	}
	tb, err := testbed.New(opts)
	if err != nil {
		fatal(err)
	}
	nodes := make([]string, 0, len(tb.PANUs)+1)
	for _, h := range tb.PANUs {
		nodes = append(nodes, h.Node)
	}
	nodes = append(nodes, tb.NAP.Node)

	// Decorrelate the reconnection jitter of this campaign's shards: same
	// campaign seed, different testbed name, different backoff schedule.
	jitter := fnv.New64a()
	jitter.Write([]byte(opts.Name))
	agent, err := collector.NewAgent(collector.AgentConfig{
		Addr: *sinkAddr, Keyspace: *keyspace,
		Campaign: collector.CampaignID{Seed: *seed, Duration: duration,
			Scenario: *scenario},
		Testbed: opts.Name, Nodes: nodes, Codec: codec,
		SpillDir: *spillDir, SpillBudget: *spillBudget,
		RetrySeed: *seed ^ jitter.Sum64(),
		Fault:     fault,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "btagent: running %s shard (seed %d, %v, scenario %q) -> %s\n",
		opts.Name, *seed, duration, btpan.Scenario(*scenario), *sinkAddr)

	start := time.Now()
	if err := runShard(tb, agent, duration, sim.Time(*flush)*sim.Second); err != nil {
		fatal(err)
	}
	res := tb.Results()
	counters := make(map[string]*workload.CountersSnapshot, len(res.Counters))
	for node, c := range res.Counters {
		counters[node] = c.Snapshot()
	}
	if err := agent.Finish(counters, duration, *timeout); err != nil {
		fatal(err)
	}
	sent, retrans := agent.Stats()
	fmt.Fprintf(os.Stderr, "btagent: %s shard complete in %v (%d frames sent, %d retransmissions)\n",
		opts.Name, time.Since(start).Round(time.Millisecond), sent, retrans)
}

// checkLimits rejects fault-injection knobs out of range and a negative
// -timeout instead of reading them as off or forever. NewAgent rejects a
// negative -spill-budget.
func checkLimits(fault collector.FaultConfig, timeout time.Duration) error {
	if timeout < 0 {
		return fmt.Errorf("-timeout %v is negative (0 waits forever)", timeout)
	}
	return fault.Validate()
}

// runShard drives the simulation with the uplink armed. The testbed's
// streaming drain panics on an unrecoverable uplink error (a refused
// session, a sink that lost its checkpoint); convert that to a clean CLI
// failure instead of a stack trace.
func runShard(tb *testbed.Testbed, agent *collector.Agent, duration, flush sim.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
				return
			}
			panic(r)
		}
	}()
	tb.StreamTo(agent, flush)
	tb.Run(duration)
	tb.FinishStream(agent)
	return nil
}

// scatShardConfig bundles the scatternet-mode command line.
type scatShardConfig struct {
	sink, keyspace string
	seed           uint64
	duration       sim.Time
	scenario       btpan.Scenario
	piconetRange   string
	piconets       int
	bridges        int
	topology       string
	redundancy     int
	hold           sim.Time
	probeSample    float64
	fault          collector.FaultConfig
}

// parsePiconetRange parses "A:B" into the half-open range [A, B).
func parsePiconetRange(s string) (lo, hi int, err error) {
	if s == "" {
		return 0, 0, fmt.Errorf("-piconet-range is required with -scatternet (e.g. 0:4)")
	}
	if _, err := fmt.Sscanf(s, "%d:%d", &lo, &hi); err != nil {
		return 0, 0, fmt.Errorf("-piconet-range %q: want A:B (half-open, e.g. 0:4)", s)
	}
	if lo < 0 || hi <= lo {
		return 0, 0, fmt.Errorf("-piconet-range %q is empty or negative", s)
	}
	return lo, hi, nil
}

// check validates the scatternet-mode flags and returns the owned range.
func (cfg scatShardConfig) check() (lo, hi int, err error) {
	if err := btpan.CheckProbeSample(cfg.probeSample); err != nil {
		return 0, 0, err
	}
	return parsePiconetRange(cfg.piconetRange)
}

// runScatternetShard runs one district shard of a distributed metro
// campaign: builds the full campaign engine (so every piconet world derives
// from the same seeds as the single-process run), then walks the owned
// range through a collector.ScatterAgent, which ships each finished
// piconet's fold partial — and, on the range owning piconet 0 of a bridged
// campaign, the overlay's pre-merged rollup partial — to the district sink.
func runScatternetShard(cfg scatShardConfig) {
	lo, hi, err := cfg.check()
	if err != nil {
		fatal(err)
	}
	scfg := btpan.ScatternetConfig{
		CampaignConfig: btpan.CampaignConfig{
			Seed: cfg.seed, Duration: cfg.duration, Scenario: cfg.scenario,
			Streaming: true,
		},
		Piconets: cfg.piconets, Bridges: cfg.bridges,
		Topology: cfg.topology, Redundancy: cfg.redundancy, HoldTime: cfg.hold,
		ProbeSample: cfg.probeSample, Rollup: true,
	}
	camp, err := btpan.NewScatternetCampaign(scfg)
	if err != nil {
		fatal(err)
	}
	if hi > camp.Piconets() {
		fatal(fmt.Errorf("-piconet-range %s outside the campaign's [0:%d)", cfg.piconetRange, camp.Piconets()))
	}
	// The overlay rides with the range owning piconet 0 — the convention
	// both the district sink and the merge tier enforce.
	overlay := lo == 0 && camp.BridgeCount() > 0
	net := collector.ScatterNet{
		Piconets: camp.Piconets(), Bridges: camp.BridgeCount(),
		Topology: cfg.topology, Redundancy: cfg.redundancy,
		Hold: cfg.hold, ProbeSample: cfg.probeSample,
	}
	// Decorrelate the reconnection jitter of this campaign's shards: same
	// campaign seed, different range, different backoff schedule.
	jitter := fnv.New64a()
	fmt.Fprintf(jitter, "%d:%d", lo, hi)
	fmt.Fprintf(os.Stderr, "btagent: running scatternet shard [%d:%d) of %d piconets (seed %d, %v, scenario %q, overlay %v) -> %s\n",
		lo, hi, camp.Piconets(), cfg.seed, cfg.duration, cfg.scenario, overlay, cfg.sink)
	start := time.Now()
	agent, err := collector.NewScatterAgent(collector.ScatterAgentConfig{
		Addr: cfg.sink, Keyspace: cfg.keyspace,
		Campaign: collector.CampaignID{Seed: cfg.seed, Duration: cfg.duration,
			Scenario: int(cfg.scenario)},
		Net: net, Lo: lo, Hi: hi, Overlay: overlay,
		RunPiconet: camp.PiconetPartial,
		RunOverlay: camp.RunOverlay,
		RetrySeed:  int64(cfg.seed ^ jitter.Sum64()),
		Fault:      cfg.fault,
	})
	if err == nil {
		err = agent.Run()
	}
	if err != nil {
		fatal(err)
	}
	sent, retrans := agent.Stats()
	rejects, _ := agent.Rejects()
	fmt.Fprintf(os.Stderr, "btagent: scatternet shard [%d:%d) complete in %v (%d frames sent, "+
		"%d retransmissions, %d retryable rejects)\n",
		lo, hi, time.Since(start).Round(time.Millisecond), sent, retrans, rejects)
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "btagent:", err)
	os.Exit(1)
}
