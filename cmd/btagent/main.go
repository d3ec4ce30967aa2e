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
// flag for the taxonomy plane: the binary batch encoding ships the tags,
// and the sink's accumulators see exactly what a single-process campaign
// sees.
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
// Each fault probability must lie in [0, 1]; NaN is rejected. -testbed,
// -flush, -timeout, -spill-dir and -spill-budget configure the testbed
// shard only: with -scatternet each is rejected with a one-line error
// naming it.
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
// typed reject. The fault-injection knobs apply to kind-8 frames too. The
// flags listed after -scatternet below need it; without it each is
// rejected with a one-line error naming it. A value the engine would read
// as unset (a -hold, -redundancy or -piconets below 1, a -probe-sample
// outside (0, 1]) is rejected too, never replaced by the default.
//
//	-scatternet          run a scatternet district shard
//	-piconet-range A:B   piconet range [A, B) this agent owns (required;
//	                     exactly its district's range= at the sink)
//	-piconets P          scatternet piconet count, at least 1 (default 2)
//	-bridges K           bridge count / random edge budget (default 1)
//	-topology T          ring, star, mesh, random; empty pairs bridge b with
//	                     piconets b and b+1 mod P
//	-redundancy K        bridges per span, at least 1 (default 1)
//	-hold S              bridge residency seconds per visit, at least 1
//	                     (default 10)
//	-probe-sample F      relay-probe pair sampling fraction in (0, 1]
//	                     (default 1)
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// cliConfig is the parsed and validated command line.
type cliConfig struct {
	sink, keyspace string
	id             cli.Campaign
	fault          collector.FaultConfig
	// The testbed shard's settings, unused with -scatternet.
	testbed     string
	flush       int
	timeout     time.Duration
	spillDir    string
	spillBudget int64
	// The scatternet district shard's settings, unused without it.
	scat  bool
	rng   cli.Range
	shape cli.Shape
}

// parseCLI parses and cross-validates the command line. A flag the chosen
// mode ignores is an error, never a silent no-op.
func parseCLI(args []string) (*cliConfig, error) {
	fs := flag.NewFlagSet("btagent", flag.ContinueOnError)
	cfg := &cliConfig{}
	fs.StringVar(&cfg.sink, "sink", "127.0.0.1:9310", "sink address")
	fs.StringVar(&cfg.keyspace, "keyspace", "", "campaign keyspace on a multi-tenant sink")
	fs.StringVar(&cfg.testbed, "testbed", "", "testbed shard: random or realistic")
	cfg.id.Register(fs)
	fs.IntVar(&cfg.flush, "flush", 3600, "virtual seconds between log drains")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Minute, "completion confirmation timeout (0 = forever)")
	fs.StringVar(&cfg.spillDir, "spill-dir", "", "write-ahead spill log directory (empty disables crash tolerance)")
	fs.Int64Var(&cfg.spillBudget, "spill-budget", 0, "max bytes of unacknowledged spill (0 = unbounded)")
	fs.Float64Var(&cfg.fault.Drop, "drop", 0, "fault injection: drop probability per data frame")
	fs.Float64Var(&cfg.fault.Duplicate, "dup", 0, "fault injection: duplicate probability per data frame")
	fs.Float64Var(&cfg.fault.Reorder, "reorder", 0, "fault injection: reorder probability per data frame")
	fs.DurationVar(&cfg.fault.Delay, "delay", 0, "fault injection: delay imposed on a delay decision")
	fs.Float64Var(&cfg.fault.DelayRate, "delay-rate", 0, "fault injection: delay probability per data frame")
	fs.Uint64Var(&cfg.fault.Seed, "fault-seed", 1, "fault injection decision seed")
	fs.BoolVar(&cfg.scat, "scatternet", false, "run a scatternet district shard")
	fs.Var(&cfg.rng, "piconet-range", "piconet range A:B owned by this shard (with -scatternet)")
	cfg.shape.Register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	testbedShard := cli.Req{OK: !cfg.scat, Why: "does not apply with -scatternet (it configures the testbed shard)"}
	district := cli.Req{OK: cfg.scat, Why: "needs -scatternet (it configures the scatternet district shard)"}
	modes := cli.Modes{}
	for _, name := range []string{"testbed", "flush", "timeout", "spill-dir", "spill-budget"} {
		modes.Need(name, testbedShard)
	}
	modes.Need("piconet-range", district)
	modes.NeedShape(district)
	if err := modes.Check(fs); err != nil {
		return nil, err
	}
	if err := cfg.id.Check(); err != nil {
		return nil, err
	}
	if err := checkLimits(cfg.fault, cfg.timeout); err != nil {
		return nil, err
	}
	if cfg.scat {
		if cfg.rng.Hi == 0 {
			return nil, fmt.Errorf("-piconet-range is required with -scatternet (e.g. 0:4)")
		}
		return cfg, cfg.shape.Check()
	}
	if cfg.flush < 1 {
		return nil, fmt.Errorf("-flush %d must be at least one virtual second", cfg.flush)
	}
	if cfg.testbed != "random" && cfg.testbed != "realistic" {
		return nil, fmt.Errorf("-testbed %q: want random or realistic", cfg.testbed)
	}
	return cfg, nil
}

func main() {
	cfg, err := parseCLI(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if cfg.scat {
		runScatternetShard(cfg)
		return
	}

	id := cfg.id.Config()
	opts, realisticOpts := testbed.CampaignOptions(id.Seed, id.Scenario, id.Duration)
	if cfg.testbed == "realistic" {
		opts = realisticOpts
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
		Addr: cfg.sink, Keyspace: cfg.keyspace,
		Campaign: cfg.id.ID(),
		Testbed:  opts.Name, Nodes: nodes,
		SpillDir: cfg.spillDir, SpillBudget: cfg.spillBudget,
		RetrySeed: id.Seed ^ jitter.Sum64(),
		Fault:     cfg.fault,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "btagent: running %s shard (seed %d, %v, scenario %q) -> %s\n",
		opts.Name, id.Seed, id.Duration, id.Scenario, cfg.sink)

	start := time.Now()
	if err := runShard(tb, agent, id.Duration, sim.Time(cfg.flush)*sim.Second); err != nil {
		fatal(err)
	}
	res := tb.Results()
	counters := make(map[string]*workload.CountersSnapshot, len(res.Counters))
	for node, c := range res.Counters {
		counters[node] = c.Snapshot()
	}
	if err := agent.Finish(counters, id.Duration, cfg.timeout); err != nil {
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

// runScatternetShard runs one district shard of a distributed metro
// campaign: builds the full campaign engine (so every piconet world derives
// from the same seeds as the single-process run), then walks the owned
// range through a collector.ScatterAgent, which ships each finished
// piconet's fold partial — and, on the range owning piconet 0 of a bridged
// campaign, the overlay's pre-merged rollup partial — to the district sink.
func runScatternetShard(cfg *cliConfig) {
	lo, hi := cfg.rng.Lo, cfg.rng.Hi
	camp, net, err := cfg.shape.District(cfg.id, cfg.rng)
	if err != nil {
		fatal(err)
	}
	id := cfg.id.Config()
	// Decorrelate the reconnection jitter of this campaign's shards: same
	// campaign seed, different range, different backoff schedule.
	jitter := fnv.New64a()
	fmt.Fprintf(jitter, "%d:%d", lo, hi)
	fmt.Fprintf(os.Stderr, "btagent: running scatternet shard [%d:%d) of %d piconets (seed %d, %v, scenario %q) -> %s\n",
		lo, hi, camp.Piconets(), id.Seed, id.Duration, id.Scenario, cfg.sink)
	start := time.Now()
	agent, err := collector.NewScatterAgent(collector.ScatterAgentConfig{
		Addr: cfg.sink, Keyspace: cfg.keyspace,
		Campaign: cfg.id.ID(),
		Net:      net, Lo: lo, Hi: hi,
		RunPiconet: camp.PiconetPartial,
		RunOverlay: camp.RunOverlay,
		RetrySeed:  int64(id.Seed ^ jitter.Sum64()),
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
