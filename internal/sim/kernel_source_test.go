package sim

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// queueSource is a test EventSource: pending events in a plain slice,
// delivered by a linear search for the least (at, seq).
type queueSource struct {
	evs  []sourceEvent
	fire func(id int)
}

// sourceEvent is one queued event of a queueSource.
type sourceEvent struct {
	at  Time
	seq uint64
	id  int
}

// head returns the index of the least pending event, or -1.
func (s *queueSource) head() int {
	m := -1
	for i, e := range s.evs {
		if m < 0 || e.at < s.evs[m].at || e.at == s.evs[m].at && e.seq < s.evs[m].seq {
			m = i
		}
	}
	return m
}

func (s *queueSource) Next() (Time, uint64, bool) {
	if m := s.head(); m >= 0 {
		return s.evs[m].at, s.evs[m].seq, true
	}
	return 0, 0, false
}

func (s *queueSource) Fire() {
	m := s.head()
	id := s.evs[m].id
	s.evs = append(s.evs[:m], s.evs[m+1:]...)
	s.fire(id)
}

// delivery is one delivered event as the script observed it.
type delivery struct {
	id       int
	now      Time
	executed uint64
}

// kernelScript drives a kernel through a seeded random event script. Every
// delivered event draws its actions from its own stream, keyed by its id,
// so two kernels that deliver the same ids in the same order perform the
// same actions: schedule children, some at the current instant. With a
// source attached, a child goes through the source, with a reserved seq,
// whenever its own draw says so.
type kernelScript struct {
	k      *Kernel
	src    *queueSource // nil: every event goes through the heap
	seed   uint64
	nextID int
	limit  int
	log    []delivery
}

// newKernelScript returns a script over a fresh kernel, with a source
// attached when viaSource is set.
func newKernelScript(seed uint64, viaSource bool) *kernelScript {
	s := &kernelScript{k: NewKernel(), seed: seed, limit: 3000}
	if viaSource {
		s.src = &queueSource{fire: s.deliver}
		s.k.Attach(s.src)
	}
	return s
}

// spawn schedules a new event d after now, through the source when
// viaSource is set and one is attached.
func (s *kernelScript) spawn(d Time, viaSource bool) {
	if s.nextID >= s.limit {
		return
	}
	id := s.nextID
	s.nextID++
	fn := func() { s.deliver(id) }
	if viaSource && s.src != nil {
		s.src.evs = append(s.src.evs, sourceEvent{at: s.k.Now() + d, seq: s.k.ReserveSeq(), id: id})
	} else {
		s.k.ScheduleAfter(d, fn)
	}
}

// deliver records event id and performs its actions.
func (s *kernelScript) deliver(id int) {
	s.log = append(s.log, delivery{id: id, now: s.k.Now(), executed: s.k.Executed()})
	rng := rand.New(rand.NewPCG(s.seed, uint64(id)))
	for n := rng.IntN(4); n > 0; n-- {
		var d Time
		switch rng.IntN(4) {
		case 0:
			d = 0 // a same-instant tie
		case 1:
			d = Time(rng.IntN(3)) * Millisecond
		default:
			d = Time(rng.Int64N(int64(Second)))
		}
		s.spawn(d, rng.IntN(2) == 0)
	}
}

// run seeds the script's first events and drives it through RunUntil
// horizons, then Steps it to exhaustion.
func (s *kernelScript) run() {
	rng := rand.New(rand.NewPCG(s.seed, 0xfeed))
	for i := 0; i < 8; i++ {
		s.spawn(Time(rng.Int64N(int64(Second))), i%2 == 0)
	}
	horizon := Time(0)
	for i := 0; i < 6; i++ {
		horizon += Time(rng.Int64N(int64(2 * Second)))
		s.k.RunUntil(horizon)
		s.log = append(s.log, delivery{id: -1, now: s.k.Now(), executed: s.k.Executed()})
	}
	for s.k.Step() {
	}
	s.log = append(s.log, delivery{id: -2, now: s.k.Now(), executed: s.k.Executed()})
}

// TestKernelSourceMatchesHeap holds Step's merge of an attached source
// with the heap to the all-heap kernel: a seeded script sends a random
// subset of its events through a source with reserved seqs, and the
// delivery order, Now at each delivery and at every horizon, and Executed
// must all equal those of the same script run through the heap alone —
// across same-instant ties and RunUntil horizons.
func TestKernelSourceMatchesHeap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		heap := newKernelScript(seed, false)
		heap.run()
		merged := newKernelScript(seed, true)
		merged.run()
		if len(heap.log) != len(merged.log) {
			t.Fatalf("seed %d: %d log entries through the heap, %d with a source", seed, len(heap.log), len(merged.log))
		}
		for i := range heap.log {
			if heap.log[i] != merged.log[i] {
				t.Fatalf("seed %d: entry %d is %+v through the heap, %+v with a source",
					seed, i, heap.log[i], merged.log[i])
			}
		}
		if heap.nextID < 100 {
			t.Fatalf("seed %d: script ran only %d events", seed, heap.nextID)
		}
		if len(merged.k.cal) != 0 || len(merged.src.evs) != 0 {
			t.Fatalf("seed %d: events left after the last Step", seed)
		}
	}
}

// TestKernelSourceAttachTwicePanics pins the one-source rule.
func TestKernelSourceAttachTwicePanics(t *testing.T) {
	k := NewKernel()
	k.Attach(&queueSource{})
	defer func() {
		if recover() == nil {
			t.Fatal("second Attach did not panic")
		}
	}()
	k.Attach(&queueSource{})
}

// TestKernelSourceHorizon checks that a source event past a RunUntil
// horizon stays pending outside the heap.
func TestKernelSourceHorizon(t *testing.T) {
	k := NewKernel()
	var fired []string
	src := &queueSource{}
	src.fire = func(id int) { fired = append(fired, fmt.Sprint("src", id)) }
	k.Attach(src)
	src.evs = append(src.evs, sourceEvent{at: 2 * Second, seq: k.ReserveSeq(), id: 0})
	k.Schedule(Second, func() { fired = append(fired, "heap") })
	if len(k.cal) != 1 {
		t.Fatalf("heap holds %d events, want 1", len(k.cal))
	}
	k.RunUntil(Second + Second/2)
	if len(fired) != 1 || fired[0] != "heap" || k.Now() != Second+Second/2 {
		t.Fatalf("after the first horizon: fired %v, now %v", fired, k.Now())
	}
	k.RunUntil(3 * Second)
	if len(fired) != 2 || fired[1] != "src0" || k.Executed() != 2 || k.Now() != 3*Second {
		t.Fatalf("after the second horizon: fired %v, executed %d, now %v", fired, k.Executed(), k.Now())
	}
}
