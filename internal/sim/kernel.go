package sim

import "fmt"

// Kernel is the discrete-event simulation engine. Events are callbacks
// scheduled at virtual instants; RunUntil delivers them in timestamp order,
// breaking ties by scheduling order so execution is deterministic.
//
// The calendar is a value-based 4-ary min-heap of (instant, seq, callback)
// entries, so steady-state scheduling through Schedule/ScheduleAfter
// performs no heap allocations (the campaign schedules ~1.6M events per
// virtual day). A scheduled event cannot be cancelled: a component that
// may no longer want an event checks its own state when it fires.
//
// One EventSource may be attached beside the heap (Attach): a component
// with many recurring events of its own keeps them in its own structure,
// takes their sequence numbers from ReserveSeq, and Step merges its head
// with the heap's by the same (instant, seq) key.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now   Time
	cal   []calEntry // 4-ary min-heap ordered by (at, seq)
	src   EventSource
	seq   uint64
	limit Time

	// executed counts delivered events, for tests and progress reporting.
	executed uint64
}

// calEntry is one value-typed calendar slot: the ordering key and the
// callback.
type calEntry struct {
	at  Time
	seq uint64
	fn  func()
}

// EventSource is an ordered stream of events kept outside the kernel's
// heap. Next reports the source's earliest pending event by its (instant,
// seq) key, or ok == false when it has none; the seq must come from the
// kernel's ReserveSeq, taken at the moment the equivalent Schedule call
// would have run, so the merged order is the all-heap order. Fire delivers
// that event: the kernel has already advanced Now to its instant and
// counted it. The key Next reports must not change between Next and Fire.
type EventSource interface {
	Next() (at Time, seq uint64, ok bool)
	Fire()
}

// Attach makes src deliver its events through Step, merged with the heap by
// (instant, seq). A kernel takes at most one source; a second Attach panics.
func (k *Kernel) Attach(src EventSource) {
	if k.src != nil {
		panic("sim: kernel already has an event source attached")
	}
	k.src = src
}

// ReserveSeq takes the next sequence number, as every schedule call does;
// an attached source takes its events' seqs here.
func (k *Kernel) ReserveSeq() uint64 {
	k.seq++
	return k.seq
}

// entryLess orders calendar entries by (instant, seq).
func entryLess(a, b calEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// NewKernel returns a kernel with an empty calendar at virtual time zero.
func NewKernel() *Kernel {
	return &Kernel{limit: Never}
}

// Now reports the current virtual instant.
func (k *Kernel) Now() Time { return k.now }

// Executed reports how many events have been delivered so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Schedule places fn at instant at. Scheduling in the past (before Now)
// panics: in a discrete-event simulation that is always a logic error, and
// silently clamping it would mask causality bugs. A nil callback panics.
func (k *Kernel) Schedule(at Time, fn func()) {
	if fn == nil {
		panic("sim: schedule called with nil callback")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	k.heapPush(calEntry{at: at, seq: k.ReserveSeq(), fn: fn})
}

// ScheduleAfter places fn d after the current instant. Negative delays
// panic, zero delays run after the current event.
func (k *Kernel) ScheduleAfter(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: ScheduleAfter called with negative delay %v", d))
	}
	k.Schedule(k.now+d, fn)
}

// Step delivers the next event, if any, advancing the clock to its instant.
// It reports whether an event was delivered. With a source attached, the
// next event is whichever of the heap's top and the source's head has the
// smaller (instant, seq).
func (k *Kernel) Step() bool {
	if len(k.cal) > 0 {
		top := k.cal[0]
		if k.src != nil {
			if at, seq, ok := k.src.Next(); ok && (at < top.at || at == top.at && seq < top.seq) {
				return k.fire(at)
			}
		}
		if top.at > k.limit {
			// Past the horizon: leave the entry in place and report
			// exhaustion.
			return false
		}
		k.heapPop()
		k.now = top.at
		k.executed++
		top.fn()
		return true
	}
	if k.src != nil {
		if at, _, ok := k.src.Next(); ok {
			return k.fire(at)
		}
	}
	return false
}

// fire delivers the attached source's head event at instant at, unless it
// lies past the horizon.
func (k *Kernel) fire(at Time) bool {
	if at > k.limit {
		return false
	}
	k.now = at
	k.executed++
	k.src.Fire()
	return true
}

// RunUntil delivers events with timestamps <= horizon, then advances the
// clock to the horizon. Events beyond the horizon stay scheduled, so the
// simulation can be resumed with a later horizon.
func (k *Kernel) RunUntil(horizon Time) {
	if horizon < k.now {
		panic(fmt.Sprintf("sim: RunUntil horizon %v before now %v", horizon, k.now))
	}
	k.limit = horizon
	for k.Step() {
	}
	k.limit = Never
	k.now = horizon
}

// heapPush appends e and sifts it up the 4-ary heap.
func (k *Kernel) heapPush(e calEntry) {
	k.cal = append(k.cal, e)
	i := len(k.cal) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(k.cal[i], k.cal[p]) {
			break
		}
		k.cal[i], k.cal[p] = k.cal[p], k.cal[i]
		i = p
	}
}

// heapPop removes the minimum entry and sifts the tail down. The vacated
// tail slot drops its callback so the calendar holds no dead closures.
func (k *Kernel) heapPop() {
	n := len(k.cal) - 1
	k.cal[0] = k.cal[n]
	k.cal[n] = calEntry{}
	k.cal = k.cal[:n]
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(k.cal[j], k.cal[m]) {
				m = j
			}
		}
		if !entryLess(k.cal[m], k.cal[i]) {
			break
		}
		k.cal[i], k.cal[m] = k.cal[m], k.cal[i]
		i = m
	}
}
