package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		in   Time
		want time.Duration
	}{
		{"zero", 0, 0},
		{"slot", Slot, 625 * time.Microsecond},
		{"second", Second, time.Second},
		{"day", Day, 24 * time.Hour},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.in.Duration(); got != tt.want {
				t.Errorf("Duration() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.5, 1, 330, 7366, 117893} {
		got := Seconds(s).Seconds()
		if diff := got - s; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("Seconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestSlots(t *testing.T) {
	if got := (3 * Slot).Slots(); got != 3 {
		t.Errorf("Slots() = %d, want 3", got)
	}
	if got := (3*Slot - 1).Slots(); got != 2 {
		t.Errorf("Slots() = %d, want 2", got)
	}
}

// drain delivers every scheduled event.
func drain(k *Kernel) {
	for k.Step() {
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30*Second, func() { order = append(order, 3) })
	k.Schedule(10*Second, func() { order = append(order, 1) })
	k.ScheduleAfter(20*Second, func() { order = append(order, 2) })
	drain(k)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("delivery order = %v, want [1 2 3]", order)
	}
	if k.Now() != 30*Second {
		t.Errorf("Now() = %v, want 30s", k.Now())
	}
}

func TestKernelTieBreakBySchedulingOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		k.Schedule(Second, func() { order = append(order, i) })
	}
	drain(k)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order = %v, want ascending", order)
		}
	}
}

// TestKernelSchedulePastPanics covers every rejected schedule: an instant
// before now, a negative delay, a nil callback and a horizon before now.
func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(Second, func() {})
	k.RunUntil(Second)
	for name, f := range map[string]func(){
		"past":             func() { k.Schedule(0, func() {}) },
		"negative delay":   func() { k.ScheduleAfter(-1, func() {}) },
		"nil callback":     func() { k.Schedule(2*Second, nil) },
		"horizon past now": func() { k.RunUntil(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want a panic", name)
				}
			}()
			f()
		}()
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.ScheduleAfter(Second, func() {
		hits = append(hits, k.Now())
		k.ScheduleAfter(Second, func() { hits = append(hits, k.Now()) })
	})
	drain(k)
	if len(hits) != 2 || hits[0] != Second || hits[1] != 2*Second {
		t.Errorf("hits = %v, want [1s 2s]", hits)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for i := 1; i <= 5; i++ {
		at := Time(i) * Second
		k.Schedule(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(3 * Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by 3s, want 3", len(fired))
	}
	if k.Now() != 3*Second {
		t.Errorf("Now() = %v, want 3s", k.Now())
	}
	k.RunUntil(10 * Second)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if k.Now() != 10*Second {
		t.Errorf("Now() = %v, want 10s (horizon advance)", k.Now())
	}
}

// TestKernelHeapProperty drives the calendar with random schedules and
// verifies delivery is globally time-ordered.
func TestKernelHeapProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel()
		var seen []Time
		for _, d := range delays {
			at := Time(d) * Millisecond
			k.Schedule(at, func() { seen = append(seen, at) })
		}
		drain(k)
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRigDeterminism(t *testing.T) {
	a := NewRig(7).Stream("fault.hci")
	b := NewRig(7).Stream("fault.hci")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed+name produced different streams")
		}
	}
}

func TestRigStreamIndependence(t *testing.T) {
	rig := NewRig(7)
	a := rig.Stream("a")
	b := rig.Stream("b")
	equal := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("streams a and b coincided %d/64 times", equal)
	}
}

func TestRigStreamIdentity(t *testing.T) {
	rig := NewRig(1)
	if rig.Stream("x") != rig.Stream("x") {
		t.Error("Stream should return the same object for the same name")
	}
	names := rig.StreamNames()
	if len(names) != 1 || names[0] != "x" {
		t.Errorf("StreamNames = %v, want [x]", names)
	}
}

func TestWorld(t *testing.T) {
	w := NewWorld(13)
	var r *rand.Rand = w.RNG("x")
	if r == nil {
		t.Fatal("RNG returned nil")
	}
	fired := false
	w.ScheduleAfter(Second, func() { fired = true })
	w.RunUntil(Second)
	if !fired {
		t.Error("world kernel did not deliver event")
	}
}
