// Command distributed demonstrates the distributed collection plane in one
// process: a collection sink and two testbed-shard agents (the random and
// realistic workloads) talk over loopback TCP with seeded fault injection —
// 10 % of data frames dropped, 10 % duplicated, 15 % reordered — and the
// campaign still reproduces the single-process streaming tables digit for
// digit, because retransmission and sequence-number deduplication hide the
// lossy network completely. The same deployment runs as real OS processes
// with cmd/btsink and cmd/btagent (see OPERATIONS.md).
package main

import (
	"fmt"
	"os"
	"time"

	btpan "repro"
	"repro/internal/collector"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

func main() {
	cfg := btpan.CampaignConfig{
		Seed: 1, Duration: 12 * btpan.Hour,
		Scenario: btpan.ScenarioSIRAsMasking, Streaming: true,
	}

	campaign := collector.CampaignID{Seed: cfg.Seed, Duration: cfg.Duration,
		Scenario: int(cfg.Scenario)}
	sink, err := collector.NewSink(collector.SinkConfig{Addr: "127.0.0.1:0",
		Keyspaces: []collector.KeyspaceConfig{{Campaign: campaign, Spec: testbed.CampaignStreamSpec()}}})
	if err != nil {
		fatal(err)
	}
	defer sink.Close()
	fmt.Printf("sink listening on %s\n", sink.Addr())

	randomOpts, realisticOpts := testbed.CampaignOptions(cfg.Seed, cfg.Scenario, cfg.Duration)
	errs := make(chan error, 2)
	for i, opts := range []testbed.Options{randomOpts, realisticOpts} {
		fault := collector.FaultConfig{
			Seed: uint64(i) + 1, Drop: 0.1, Duplicate: 0.1, Reorder: 0.15,
		}
		go func(opts testbed.Options, fault collector.FaultConfig) {
			errs <- runShard(opts, campaign, sink.Addr(), cfg.Duration, fault)
		}(opts, fault)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			fatal(err)
		}
	}

	rep, err := sink.WaitKeyspace("", 2*time.Minute)
	if err != nil {
		fatal(err)
	}
	res, err := btpan.ResultFromAggregates(cfg, rep.Agg, rep.Counters, rep.Durations)
	if err != nil {
		fatal(err)
	}
	btpan.WriteReport(os.Stdout, res)
	applied, dups, rejected := sink.Stats()
	fmt.Printf("\ntransport: %d batches applied, %d duplicates filtered, %d rejected, %d sequence gaps\n",
		applied, dups, rejected, rep.Agg.SeqGaps)
}

// runShard mirrors cmd/btagent: one testbed streamed through an uplink.
func runShard(opts testbed.Options, campaign collector.CampaignID, addr string,
	duration sim.Time, fault collector.FaultConfig) error {
	tb, err := testbed.New(opts)
	if err != nil {
		return err
	}
	nodes := make([]string, 0, len(tb.PANUs)+1)
	for _, h := range tb.PANUs {
		nodes = append(nodes, h.Node)
	}
	nodes = append(nodes, tb.NAP.Node)
	agent, err := collector.NewAgent(collector.AgentConfig{
		Addr: addr, Campaign: campaign, Testbed: opts.Name, Nodes: nodes, Fault: fault})
	if err != nil {
		return err
	}
	defer agent.Close()
	tb.StreamTo(agent, sim.Hour)
	tb.Run(duration)
	tb.FinishStream(agent)
	res := tb.Results()
	counters := make(map[string]*workload.CountersSnapshot, len(res.Counters))
	for node, c := range res.Counters {
		counters[node] = c.Snapshot()
	}
	return agent.Finish(counters, duration, time.Minute)
}

// fatal prints the error and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "distributed:", err)
	os.Exit(1)
}
