package l2cap

import (
	"testing"

	"repro/internal/core"
)

// TestPlanSDUFragments pins Seg, Len and Total to one another across
// packet types and SDU lengths: fragment 0 alone is the start, every length
// equals its Seg's, and the lengths add up to the SDU plus its header.
func TestPlanSDUFragments(t *testing.T) {
	for _, pt := range core.PacketTypes() {
		for _, n := range []int{1, 4, 13, 17, 100, 339, 800, 1500, 1691} {
			plan := PlanSDU(n, pt)
			total := 0
			for i := 0; i < plan.Count; i++ {
				seg := plan.Seg(i)
				if seg.Start != (i == 0) {
					t.Errorf("%v/%dB fragment %d: Start %v", pt, n, i, seg.Start)
				}
				if plan.Len(i) != seg.Len {
					t.Errorf("%v/%dB fragment %d: Len %d != %d", pt, n, i, plan.Len(i), seg.Len)
				}
				total += seg.Len
			}
			if plan.Total() != total {
				t.Errorf("%v/%dB: Total %d != %d", pt, n, plan.Total(), total)
			}
			if plan.Total() != n+HeaderLen {
				t.Errorf("%v/%dB: Total %d != SDU+header %d", pt, n, plan.Total(), n+HeaderLen)
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
