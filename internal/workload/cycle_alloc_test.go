package workload

import (
	"testing"

	"repro/internal/recovery"
	"repro/internal/sim"
)

// cycleBed is a fault-free PANU–NAP pair running the random workload, one
// fresh connection per cycle: inquiry (half the cycles), baseband link, SDP
// search, PAN connect, role switch, bind, transfer and disconnect.
type cycleBed struct {
	*pair
	client *Client
}

func newCycleBed(t testing.TB, scenario recovery.Scenario) *cycleBed {
	t.Helper()
	b := &cycleBed{pair: newPair(t, 7, "Verde", quiet)}
	b.client = NewClient(DefaultRandom("random", scenario), b.world, b.panu, b.nap, b.testLog)
	b.client.Start()
	// Warm up: the kernel slab, the hotplug event list, the handle table
	// and the SDP result buffer reach their working sizes.
	b.world.RunUntil(sim.Hour)
	return b
}

// cycle runs the world until the client has started one more cycle.
func (b *cycleBed) cycle() {
	c := b.client.Counters()
	for n := c.Cycles; c.Cycles == n; {
		if !b.world.Step() {
			panic("workload: world ran dry")
		}
	}
}

// TestConnectionCycleSteadyStateAllocFree holds the per-cycle control plane
// to zero allocations once warm: every layer a BlueTest cycle passes through
// reuses its per-connection state in place.
func TestConnectionCycleSteadyStateAllocFree(t *testing.T) {
	for _, sc := range []recovery.Scenario{recovery.ScenarioSIRAs, recovery.ScenarioSIRAsMasking} {
		t.Run(sc.String(), func(t *testing.T) {
			b := newCycleBed(t, sc)
			c := b.client.Counters()
			conns := c.Connections
			const runs = 100
			allocs := testing.AllocsPerRun(runs, b.cycle)
			if got := c.Connections - conns; got < runs {
				t.Fatalf("%d connections in %d cycles, want one per cycle", got, runs+1)
			}
			if f := c.TotalFailures(); f != 0 {
				t.Fatalf("%d failures on a fault-free pair", f)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per connection cycle, want 0", allocs)
			}
		})
	}
}

// BenchmarkConnectionCycle is one BlueTest cycle on a fresh connection of a
// fault-free PANU–NAP pair: the control path from inquiry to disconnect plus
// the cycle's transfer.
func BenchmarkConnectionCycle(b *testing.B) {
	bed := newCycleBed(b, recovery.ScenarioSIRAs)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		bed.cycle()
	}
}
