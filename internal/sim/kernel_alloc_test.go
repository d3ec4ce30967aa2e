package sim

import "testing"

// TestKernelScheduleSteadyStateAllocFree proves that once the calendar has
// reached its working capacity, a schedule + deliver round trip performs
// zero heap allocations (the campaign schedules ~1.6M events per virtual
// day).
func TestKernelScheduleSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Prime the calendar capacity.
	for i := 0; i < 256; i++ {
		k.ScheduleAfter(Time(i+1)*Millisecond, fn)
	}
	for k.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k.ScheduleAfter(Millisecond, fn)
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+deliver allocates %.1f objects per run, want 0", allocs)
	}
}

// BenchmarkKernelSchedule measures a steady-state schedule + deliver round
// trip through the value-heap calendar.
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 256; i++ {
		k.ScheduleAfter(Time(i+1)*Millisecond, fn)
	}
	for k.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleAfter(Millisecond, fn)
		k.Step()
	}
}
