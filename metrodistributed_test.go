package btpan

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/collector"
	"repro/internal/sim"
)

// The metro distributed-plane acceptance suite: scatternet districts run as
// separate agent processes (goroutines around real campaign engines, exactly
// as cmd/btagent -scatternet does) shipping fold partials to a district sink,
// and the merged metro report must be byte-identical to the single-process
// `RunScatternet` rollup — on a clean network, under seeded
// loss/duplication/reordering, across an agent crash + re-run, and across a
// sink kill -9 + checkpoint restore. These are the in-process versions of
// scripts/chaos_metro.sh.

// metroConfig is the suite's scatternet campaign: a 4-piconet bridged ring
// with a sampled probe plane, small enough to run in seconds but exercising
// every rollup surface (fold, all-bridge table, relay depth, redundancy).
func metroConfig() ScatternetConfig {
	return ScatternetConfig{
		CampaignConfig: CampaignConfig{
			Seed: 5, Duration: 2 * sim.Hour, Scenario: ScenarioSIRAs,
			Streaming: true,
		},
		Piconets:    4,
		Topology:    TopologyRing,
		ProbeSample: 0.5,
		Rollup:      true,
	}
}

// metroNet derives the wire-level scatternet identity the way cmd/btagent
// and cmd/btsink do: effective piconet/bridge counts from the built engine,
// raw composition knobs from the config.
func metroNet(cfg ScatternetConfig) (collector.ScatterNet, error) {
	camp, err := NewScatternetCampaign(cfg)
	if err != nil {
		return collector.ScatterNet{}, err
	}
	return collector.ScatterNet{
		Piconets:    camp.Piconets(),
		Bridges:     camp.BridgeCount(),
		Topology:    cfg.Topology,
		Redundancy:  cfg.Redundancy,
		Hold:        cfg.HoldTime,
		ProbeSample: cfg.ProbeSample,
	}, nil
}

// metroDistricts splits the piconet space into the suite's two districts.
func metroDistricts(cfg ScatternetConfig, ckptDir string) ([]collector.DistrictConfig, error) {
	net, err := metroNet(cfg)
	if err != nil {
		return nil, err
	}
	camp, err := NewScatternetCampaign(cfg)
	if err != nil {
		return nil, err
	}
	mid := net.Piconets / 2
	ranges := [][2]int{{0, mid}, {mid, net.Piconets}}
	dcs := make([]collector.DistrictConfig, 0, len(ranges))
	for i, r := range ranges {
		dc := collector.DistrictConfig{
			Key:          fmt.Sprintf("district%d", i),
			Campaign:     campaignID(cfg.CampaignConfig),
			Net:          net,
			ScenarioName: camp.ScenarioName(),
			Lo:           r[0],
			Hi:           r[1],
		}
		if ckptDir != "" {
			dc.CheckpointPath = filepath.Join(ckptDir, dc.Key+".district.ckpt")
		}
		dcs = append(dcs, dc)
	}
	return dcs, nil
}

// renderMetro formats the rollup + redundancy section exactly as cmd/btmerge
// -scatternet and cmd/btcampaign -scatternet -rollup (sans banner) print it,
// with the -taxonomy appendix always on so the equivalence tests pin the
// survival plane across the wire too.
func renderMetro(roll *analysis.ScatternetRollup, red *analysis.RedundancyTable,
	duration sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%s", roll.Render())
	if red != nil {
		fmt.Fprintf(&b, "\nRedundancy groups (outage charged only when a whole span is down)\n%s",
			red.Render())
	}
	fmt.Fprintf(&b, "\n%s", roll.RenderTaxonomy(duration))
	if red != nil {
		fmt.Fprintf(&b, "\n%s", red.RenderPartitionCandidates(30))
	}
	return b.String()
}

// metroReference renders the single-process rollup report the distributed
// plane must reproduce byte for byte.
func metroReference(t *testing.T, cfg ScatternetConfig) string {
	t.Helper()
	res, err := RunScatternet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var red *analysis.RedundancyTable
	if res.Topology.Bridges() > 0 {
		red = res.Redundancy
	}
	return renderMetro(res.Rollup, red, cfg.Duration)
}

// runMetroAgent runs one district agent exactly as cmd/btagent -scatternet
// does: build an independent campaign engine for the whole metro config and
// drive only the district's piconet range (plus the overlay when it owns
// piconet 0). failAfter >= 0 injects a crash: the engine computes that many
// partials and then errors out, simulating kill -9 mid-range; the caller
// restarts with a fresh engine, which re-runs past the sink's resume cursor.
func runMetroAgent(cfg ScatternetConfig, dc collector.DistrictConfig, addr string,
	stall time.Duration, fault collector.FaultConfig, failAfter int) error {
	camp, err := NewScatternetCampaign(cfg)
	if err != nil {
		return err
	}
	run := camp.PiconetPartial
	if failAfter >= 0 {
		calls := 0
		run = func(p int) (*analysis.PiconetPartial, error) {
			if calls >= failAfter {
				return nil, fmt.Errorf("injected crash before piconet %d", p)
			}
			calls++
			return camp.PiconetPartial(p)
		}
	}
	agent, err := collector.NewScatterAgent(collector.ScatterAgentConfig{
		Addr:         addr,
		Keyspace:     dc.Key,
		Campaign:     dc.Campaign,
		Net:          dc.Net,
		Lo:           dc.Lo,
		Hi:           dc.Hi,
		RunPiconet:   run,
		RunOverlay:   camp.RunOverlay,
		RetryMin:     20 * time.Millisecond,
		RetryMax:     200 * time.Millisecond,
		RetrySeed:    int64(dc.Lo + 1),
		StallTimeout: stall,
		Fault:        fault,
	})
	if err != nil {
		return err
	}
	return agent.Run()
}

// collectMetro waits for every district partial and merges the metro report.
func collectMetro(t *testing.T, sink *collector.Sink,
	dcs []collector.DistrictConfig) string {
	t.Helper()
	parts := make([]*collector.DistrictPartial, 0, len(dcs))
	for _, dc := range dcs {
		p, err := sink.WaitDistrict(dc.Key, 120*time.Second)
		if err != nil {
			t.Fatalf("district %s: %v", dc.Key, err)
		}
		parts = append(parts, p)
	}
	roll, red, err := collector.MergeDistricts(parts)
	if err != nil {
		t.Fatal(err)
	}
	return renderMetro(roll, red, dcs[0].Campaign.Duration)
}

// runMetroDistributed runs the full two-district + sink campaign over
// loopback and returns the merged report.
func runMetroDistributed(t *testing.T, cfg ScatternetConfig,
	stall time.Duration, fault collector.FaultConfig) string {
	t.Helper()
	dcs, err := metroDistricts(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := collector.NewSink(collector.SinkConfig{
		Addr: "127.0.0.1:0", Districts: dcs})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	errs := make(chan shardErr, len(dcs))
	for i, dc := range dcs {
		faultN := fault
		if faultN.Active() {
			faultN.Seed = fault.Seed + uint64(i) // distinct decisions per district
		}
		go func(dc collector.DistrictConfig, f collector.FaultConfig) {
			errs <- shardErr{dc.Key, runMetroAgent(cfg, dc, sink.Addr(), stall, f, -1)}
		}(dc, faultN)
	}
	for range dcs {
		if e := <-errs; e.err != nil {
			t.Fatalf("district agent %s: %v", e.name, e.err)
		}
	}
	return collectMetro(t, sink, dcs)
}

// TestMetroDistributedMatchesRollup pins the headline invariant: two
// district agents + a district sink over a clean loopback network reproduce
// the single-process `-scatternet -rollup -stream` metro report byte for
// byte at the same seed.
func TestMetroDistributedMatchesRollup(t *testing.T) {
	cfg := metroConfig()
	ref := metroReference(t, cfg)
	got := runMetroDistributed(t, cfg, 2*time.Second, collector.FaultConfig{})
	if got != ref {
		t.Errorf("distributed metro report differs from single-process rollup:\n"+
			"-- distributed --\n%s\n-- rollup --\n%s", got, ref)
	}
}

// TestMetroDistributedUnderFaults re-runs the equivalence with every
// outgoing partial frame subject to seeded drop/duplication/reordering: the
// stop-and-wait retransmission and the sink's cursor dedup must still yield
// the identical report.
func TestMetroDistributedUnderFaults(t *testing.T) {
	cfg := metroConfig()
	ref := metroReference(t, cfg)
	fault := collector.FaultConfig{Seed: 11, Drop: 0.25, Duplicate: 0.25, Reorder: 0.25}
	got := runMetroDistributed(t, cfg, 120*time.Millisecond, fault)
	if got != ref {
		t.Errorf("fault-injected metro report differs from rollup:\n"+
			"-- distributed --\n%s\n-- rollup --\n%s", got, ref)
	}
}

// TestMetroDistributedAgentCrashResume kills the overlay-owning district
// agent after it shipped exactly one piconet partial, then restarts it with
// a fresh engine (as a supervisor restarting the btagent process would):
// the restarted agent resumes from the sink's cursor, re-runs only the
// unacknowledged piconets, and the merged report is still byte-identical.
func TestMetroDistributedAgentCrashResume(t *testing.T) {
	cfg := metroConfig()
	ref := metroReference(t, cfg)
	dcs, err := metroDistricts(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sink, err := collector.NewSink(collector.SinkConfig{
		Addr: "127.0.0.1:0", Districts: dcs})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	errs := make(chan shardErr, 1)
	go func() {
		errs <- shardErr{dcs[1].Key,
			runMetroAgent(cfg, dcs[1], sink.Addr(), 2*time.Second, collector.FaultConfig{}, -1)}
	}()

	// First incarnation of district0: one partial lands, then the process dies.
	if err := runMetroAgent(cfg, dcs[0], sink.Addr(), 2*time.Second,
		collector.FaultConfig{}, 1); err == nil {
		t.Fatal("crashing agent incarnation returned nil error")
	}
	// Second incarnation: fresh engine, full range; the sink's Resume cursor
	// skips the already-acknowledged work.
	if err := runMetroAgent(cfg, dcs[0], sink.Addr(), 2*time.Second,
		collector.FaultConfig{}, -1); err != nil {
		t.Fatalf("restarted agent: %v", err)
	}
	if e := <-errs; e.err != nil {
		t.Fatalf("district agent %s: %v", e.name, e.err)
	}

	got := collectMetro(t, sink, dcs)
	if got != ref {
		t.Errorf("agent-crash metro report differs from rollup:\n"+
			"-- distributed --\n%s\n-- rollup --\n%s", got, ref)
	}
}

// TestMetroDistributedSinkCrashRestore kills the district sink (Abort: no
// drain, no final checkpoint beyond what already hit disk) once at least one
// district checkpoint exists, restarts it on the same address from the same
// checkpoint files, and requires the agents — which retry through the outage
// with backoff — to finish into a byte-identical merged report.
func TestMetroDistributedSinkCrashRestore(t *testing.T) {
	cfg := metroConfig()
	ref := metroReference(t, cfg)
	dcs, err := metroDistricts(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sink, err := collector.NewSink(collector.SinkConfig{
		Addr: "127.0.0.1:0", Districts: dcs})
	if err != nil {
		t.Fatal(err)
	}
	addr := sink.Addr()

	errs := make(chan shardErr, len(dcs))
	for _, dc := range dcs {
		go func(dc collector.DistrictConfig) {
			errs <- shardErr{dc.Key,
				runMetroAgent(cfg, dc, addr, 300*time.Millisecond, collector.FaultConfig{}, -1)}
		}(dc)
	}

	// Wait for a district checkpoint to hit disk, then kill the sink hard.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(dcs[0].CheckpointPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no district checkpoint appeared before the kill window closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sink.Abort(); err != nil {
		t.Fatalf("abort: %v", err)
	}

	sink2, err := collector.NewSink(collector.SinkConfig{
		Addr: addr, Districts: dcs})
	if err != nil {
		t.Fatalf("sink restart: %v", err)
	}
	defer sink2.Close()

	for range dcs {
		if e := <-errs; e.err != nil {
			t.Fatalf("district agent %s: %v", e.name, e.err)
		}
	}
	got := collectMetro(t, sink2, dcs)
	if got != ref {
		t.Errorf("sink-crash metro report differs from rollup:\n"+
			"-- distributed --\n%s\n-- rollup --\n%s", got, ref)
	}
}

// TestMetroDistrictCompletesAfterAgentDone pins district completion to the
// agents' Done/Fin exchange. btsink exits once every district completes, so
// a district that completed on its last fold, before its agent's Done
// arrived, left the agent redialling a closed listener forever (the
// intermittent scripts/chaos_metro.sh hang). A proxy holds every Done frame
// back for less than the agents' stall timeout, so no Done is sent twice,
// and the sink is closed the moment both districts complete, as btsink
// does; each agent must still be released.
func TestMetroDistrictCompletesAfterAgentDone(t *testing.T) {
	cfg := metroConfig()
	dcs, err := metroDistricts(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	sink, err := collector.NewSink(collector.SinkConfig{
		Addr: "127.0.0.1:0", Districts: dcs})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	proxy := delayDoneProxy(t, sink.Addr(), 300*time.Millisecond)

	go func() {
		for _, dc := range dcs {
			if _, err := sink.WaitDistrict(dc.Key, time.Minute); err != nil {
				return
			}
		}
		sink.Close()
	}()
	errs := make(chan shardErr, len(dcs))
	for _, dc := range dcs {
		go func(dc collector.DistrictConfig) {
			errs <- shardErr{dc.Key,
				runMetroAgent(cfg, dc, proxy, 5*time.Second, collector.FaultConfig{}, -1)}
		}(dc)
	}
	timeout := time.After(time.Minute)
	for range dcs {
		select {
		case e := <-errs:
			if e.err != nil {
				t.Fatalf("district agent %s: %v", e.name, e.err)
			}
		case <-timeout:
			t.Fatal("a district agent was never released: its district completed " +
				"and the sink closed before the agent's Done")
		}
	}
}

// delayDoneProxy forwards loopback connections to addr, holding each
// agent-to-sink Done frame (kind 5, PROTOCOL.md §1) for delay. It returns
// the proxy's address; the listener closes with the test.
func delayDoneProxy(t *testing.T, addr string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				down.Close()
				continue
			}
			go func() {
				io.Copy(down, up)
				down.Close()
			}()
			go func() {
				defer up.Close()
				var hdr [5]byte
				for {
					if _, err := io.ReadFull(down, hdr[:]); err != nil {
						return
					}
					body := make([]byte, binary.BigEndian.Uint32(hdr[:4])-1)
					if _, err := io.ReadFull(down, body); err != nil {
						return
					}
					if hdr[4] == 5 {
						time.Sleep(delay)
					}
					if _, err := up.Write(append(hdr[:], body...)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}
