package collector

import (
	"testing"
	"time"
)

// benchWaitConnected parks until the agent holds a live session, so the
// timed region measures the steady connected state — a real agent
// handshakes once and then streams for days, and before the handshake
// Ingest deliberately takes the slower inline-spill path.
func benchWaitConnected(b *testing.B, a *Agent) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		c := a.connected
		a.mu.Unlock()
		if c {
			return
		}
		if time.Now().After(deadline) {
			b.Fatal("agent never reached a live session")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// benchAgentStreamDay ships one streaming day of the standard two-testbed
// corpus (tpBatches(24): 120 hourly drains across five streams) through
// real agents to a loopback sink and finishes the campaign — the whole
// agent-side lifecycle a btagent shard performs. With spill on, every
// encoded frame also rides through the write-ahead spill log, so the pair
// of benchmarks isolates the WAL's cost; bench.sh folds the two into
// agent_wal_overhead_ratio in BENCH_campaign.json (budget: under 15%).
func benchAgentStreamDay(b *testing.B, spill bool) {
	batches := tpBatches(24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sink, err := NewSink(SinkConfig{Addr: "127.0.0.1:0",
			Keyspaces: []KeyspaceConfig{{Spec: tpSpec()}}})
		if err != nil {
			b.Fatal(err)
		}
		spillDir := ""
		if spill {
			spillDir = b.TempDir()
		}
		agents := tpSpillAgents(b, sink.Addr(), spillDir)
		for _, a := range agents {
			benchWaitConnected(b, a)
		}
		b.StartTimer()
		for _, bt := range batches {
			if err := agents[bt.testbed].Ingest(bt.testbed, bt.node, bt.reports, bt.entries, bt.watermark); err != nil {
				b.Fatal(err)
			}
		}
		tpFinish(b, agents)
		for _, a := range agents {
			a.Close()
		}
		b.StopTimer()
		sink.Close()
	}
}

// BenchmarkAgentStreamDay is the no-WAL baseline: the agent keeps
// unacknowledged batches in memory only.
func BenchmarkAgentStreamDay(b *testing.B) { benchAgentStreamDay(b, false) }

// BenchmarkAgentStreamDaySpill runs the same day with the write-ahead
// spill log armed, appending every encoded frame before it is offered to
// the uplink.
func BenchmarkAgentStreamDaySpill(b *testing.B) { benchAgentStreamDay(b, true) }
