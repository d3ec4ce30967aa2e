package btpan

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"testing"
	"time"

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

// TestMetroDistributedMatchesRollup pins the headline invariant: two
// district agents + a district sink over a clean loopback network reproduce
// the single-process `-scatternet -rollup -stream` metro report byte for
// byte at the same seed.
func TestMetroDistributedMatchesRollup(t *testing.T) {
	cfg := metroConfig()
	agreeMetro(t, cfg, rollupPlane(1), districtPlane(cfg.Piconets/2, collector.FaultConfig{}))
}

// TestMetroDistributedUnderFaults re-runs the equivalence with every
// outgoing partial frame subject to seeded drop/duplication/reordering: the
// stall retransmission and the sink's cursor dedup must still yield
// the identical report.
func TestMetroDistributedUnderFaults(t *testing.T) {
	cfg := metroConfig()
	fault := collector.FaultConfig{Seed: 11, Drop: 0.25, Duplicate: 0.25, Reorder: 0.25}
	agreeMetro(t, cfg, rollupPlane(1), districtPlane(cfg.Piconets/2, fault))
}

// TestMetroDistributedAgentCrashResume kills the overlay-owning district
// agent after it shipped exactly one piconet partial, then restarts it with
// a fresh engine (as a supervisor restarting the btagent process would):
// the restarted agent resumes from the sink's cursor, re-runs only the
// unacknowledged piconets, and the merged report is still byte-identical.
func TestMetroDistributedAgentCrashResume(t *testing.T) {
	cfg := metroConfig()
	ref := rollupPlane(1).run(t, cfg)
	dcs := metroDistricts(t, cfg, cfg.Piconets/2, t.TempDir())
	sink, err := collector.NewSink(collector.SinkConfig{
		Addr: "127.0.0.1:0", Districts: dcs})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	errs := make(chan error, 1)
	go func() {
		errs <- districtAgent(cfg, dcs[1], sink.Addr(), 2*time.Second, collector.FaultConfig{}, -1)
	}()

	// First incarnation of district0: one partial lands, then the process dies.
	if err := districtAgent(cfg, dcs[0], sink.Addr(), 2*time.Second,
		collector.FaultConfig{}, 1); err == nil {
		t.Fatal("crashing agent incarnation returned nil error")
	}
	// Second incarnation: fresh engine, full range; the sink's Resume cursor
	// skips the already-acknowledged work.
	if err := districtAgent(cfg, dcs[0], sink.Addr(), 2*time.Second,
		collector.FaultConfig{}, -1); err != nil {
		t.Fatalf("restarted agent: %v", err)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "agent-crash districts vs roll-up", ref, districtBytes(t, sink, dcs))
}

// TestMetroDistributedSinkCrashRestore kills the district sink (Abort: no
// drain, no final checkpoint beyond what already hit disk) once at least one
// district checkpoint exists, restarts it on the same address from the same
// checkpoint files, and requires the agents — which retry through the outage
// with backoff — to finish into a byte-identical merged report.
func TestMetroDistributedSinkCrashRestore(t *testing.T) {
	cfg := metroConfig()
	ref := rollupPlane(1).run(t, cfg)
	dcs := metroDistricts(t, cfg, cfg.Piconets/2, t.TempDir())
	sink, err := collector.NewSink(collector.SinkConfig{
		Addr: "127.0.0.1:0", Districts: dcs})
	if err != nil {
		t.Fatal(err)
	}
	addr := sink.Addr()

	errs := make(chan error, len(dcs))
	for _, dc := range dcs {
		go func() {
			errs <- districtAgent(cfg, dc, addr, 300*time.Millisecond, collector.FaultConfig{}, -1)
		}()
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
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sameBytes(t, "sink-crash districts vs roll-up", ref, districtBytes(t, sink2, dcs))
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
	dcs := metroDistricts(t, cfg, cfg.Piconets/2, "")
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
	errs := make(chan error, len(dcs))
	for _, dc := range dcs {
		go func() {
			errs <- districtAgent(cfg, dc, proxy, 5*time.Second, collector.FaultConfig{}, -1)
		}()
	}
	timeout := time.After(time.Minute)
	for range dcs {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
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
