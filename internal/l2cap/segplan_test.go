package l2cap

import (
	"testing"

	"repro/internal/core"
)

// TestPlanSDUFragments pins the plan across packet types and SDU lengths:
// every fragment but the last carries the full budget, and the lengths add
// up to the SDU plus its header.
func TestPlanSDUFragments(t *testing.T) {
	for _, pt := range core.PacketTypes() {
		for _, n := range []int{1, 4, 13, 17, 100, 339, 800, 1500, 1691} {
			plan := PlanSDU(n, pt)
			total := 0
			for i := 0; i < plan.Count; i++ {
				if l := plan.Len(i); i < plan.Count-1 && l != pt.Payload() {
					t.Errorf("%v/%dB fragment %d: Len %d, want the full budget %d", pt, n, i, l, pt.Payload())
				}
				total += plan.Len(i)
			}
			if total != n+HeaderLen {
				t.Errorf("%v/%dB: lengths add to %d, want SDU+header %d", pt, n, total, n+HeaderLen)
			}
		}
	}
}

// TestSegPlanIterationAllocFree proves the data plane's segmentation path
// performs zero heap allocations — the point of replacing the []Segment
// return on a 5.5M-fragment-per-day path.
func TestSegPlanIterationAllocFree(t *testing.T) {
	var sink int
	allocs := testing.AllocsPerRun(200, func() {
		plan := PlanSDU(1500, core.PTDH5)
		for i := 0; i < plan.Count; i++ {
			sink += plan.Len(i)
		}
	})
	if allocs != 0 {
		t.Errorf("SegPlan iteration allocates %.1f objects per run, want 0", allocs)
	}
	_ = sink
}

// TestSegPlanPanics pins the guard rails.
func TestSegPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PlanSDU(0) should panic")
		}
	}()
	PlanSDU(0, core.PTDH1)
}

// BenchmarkSegPlan measures the zero-alloc plan iteration the data plane
// uses.
func BenchmarkSegPlan(b *testing.B) {
	var sink int
	for i := 0; i < b.N; i++ {
		plan := PlanSDU(1500, core.PTDH5)
		for j := 0; j < plan.Count; j++ {
			sink += plan.Len(j)
		}
	}
	_ = sink
}
