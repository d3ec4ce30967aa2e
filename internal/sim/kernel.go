package sim

import "fmt"

// Kernel is the discrete-event simulation engine. Events are callbacks
// scheduled at virtual instants; Run drains the calendar in timestamp order,
// breaking ties by scheduling order so execution is deterministic.
//
// The calendar is a value-based 4-ary min-heap of (instant, seq, slab-slot)
// entries; the callbacks live in a slab with a free-list, so steady-state
// scheduling through Schedule/ScheduleAfter performs no heap allocations
// (the campaign schedules ~1.6M events per virtual day).
//
// One EventSource may be attached beside the heap (Attach): a component
// with many recurring events of its own keeps them in its own structure,
// takes their sequence numbers from ReserveSeq, and Step merges its head
// with the heap's by the same (instant, seq) key.
//
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now     Time
	cal     []calEntry // 4-ary min-heap ordered by (at, seq)
	slab    []event    // event storage, indexed by calEntry.slot
	free    []int32    // recycled slab slots
	src     EventSource
	seq     uint64
	stopped bool
	limit   Time

	// executed counts delivered events, for tests and progress reporting.
	executed uint64
}

// event is a slab entry. seq ties it to its calendar entry; dead marks
// cancelled (or delivered) events that are lazily discarded when their
// calendar entry reaches the top of the heap, keeping cancellation O(1).
type event struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
}

// calEntry is one value-typed calendar slot: the ordering key plus the slab
// index holding the callback.
type calEntry struct {
	at   Time
	seq  uint64
	slot int32
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

// Pending reports how many events are waiting in the heap (including
// cancelled entries not yet lazily discarded); an attached source's events
// are not counted.
func (k *Kernel) Pending() int { return len(k.cal) }

// Timer is a handle to a scheduled event. Stop cancels delivery; a stopped
// or already-delivered timer reports Active() == false. For periodic timers
// (Every), Stop also prevents re-arming.
type Timer struct {
	k       *Kernel
	slot    int32
	seq     uint64
	stopped bool
}

// live reports whether the slab entry for (slot, seq) is still scheduled.
func (k *Kernel) live(slot int32, seq uint64) bool {
	return slot >= 0 && int(slot) < len(k.slab) &&
		k.slab[slot].seq == seq && !k.slab[slot].dead
}

// Active reports whether the timer is still scheduled for delivery.
func (t *Timer) Active() bool {
	return t != nil && !t.stopped && t.k != nil && t.k.live(t.slot, t.seq)
}

// Stop cancels the timer. It reports whether the call prevented a pending
// delivery. Stopping from inside the timer's own callback returns false (the
// delivery already happened) but still halts a periodic series.
func (t *Timer) Stop() bool {
	if t == nil || t.stopped {
		return false
	}
	t.stopped = true
	if t.k != nil && t.k.live(t.slot, t.seq) {
		ev := &t.k.slab[t.slot]
		ev.dead = true
		ev.fn = nil
		return true
	}
	return false
}

// When reports the instant the timer will fire, or Never if inactive.
func (t *Timer) When() Time {
	if !t.Active() {
		return Never
	}
	return t.k.slab[t.slot].at
}

// schedule is the allocation-free core: it places fn at instant at and
// returns the slab slot and sequence number identifying the schedule.
func (k *Kernel) schedule(at Time, fn func()) (int32, uint64) {
	if fn == nil {
		panic("sim: schedule called with nil callback")
	}
	if at < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, k.now))
	}
	seq := k.ReserveSeq()
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slab = append(k.slab, event{})
		slot = int32(len(k.slab) - 1)
	}
	k.slab[slot] = event{at: at, seq: seq, fn: fn}
	k.heapPush(calEntry{at: at, seq: seq, slot: slot})
	return slot, seq
}

// Schedule places fn at instant at without returning a cancellation handle.
// It is the zero-allocation path for fire-and-forget events (the vast
// majority of the simulation's schedules). Scheduling in the past panics.
func (k *Kernel) Schedule(at Time, fn func()) { k.schedule(at, fn) }

// ScheduleAfter places fn d after the current instant without returning a
// handle. Negative delays panic, zero delays run after the current event.
func (k *Kernel) ScheduleAfter(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: ScheduleAfter called with negative delay %v", d))
	}
	k.schedule(k.now+d, fn)
}

// At schedules fn to run at instant at and returns a cancellation handle.
// Scheduling in the past (before Now) panics: in a discrete-event simulation
// that is always a logic error, and silently clamping it would mask
// causality bugs.
func (k *Kernel) At(at Time, fn func()) *Timer {
	slot, seq := k.schedule(at, fn)
	return &Timer{k: k, slot: slot, seq: seq}
}

// After schedules fn to run d after the current instant. Negative delays
// panic, zero delays run after the current event completes.
func (k *Kernel) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: After called with negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Every schedules fn to run every period, starting one period from now, and
// returns a Timer whose Stop cancels the series. A non-positive period
// panics.
func (k *Kernel) Every(period Time, fn func()) *Timer {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive period %v", period))
	}
	t := &Timer{k: k}
	var tick func()
	tick = func() {
		fn()
		// Re-arm unless the handle was stopped (possibly from inside fn).
		if !t.stopped {
			t.slot, t.seq = k.schedule(k.now+period, tick)
		}
	}
	t.slot, t.seq = k.schedule(k.now+period, tick)
	return t
}

// Step delivers the next event, if any, advancing the clock to its instant.
// It reports whether an event was delivered. With a source attached, the
// next event is whichever of the heap's live top and the source's head has
// the smaller (instant, seq).
func (k *Kernel) Step() bool {
	for len(k.cal) > 0 {
		top := k.cal[0]
		// A slab slot is recycled only after its calendar entry pops, so
		// the top entry always references its own event.
		ev := &k.slab[top.slot]
		if ev.dead {
			// Cancelled entry: discard it and recycle the slot.
			k.heapPop()
			ev.fn = nil
			k.free = append(k.free, top.slot)
			continue
		}
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
		fn := ev.fn
		ev.dead = true
		ev.fn = nil
		k.free = append(k.free, top.slot)
		fn()
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

// Run delivers events until the calendar is empty or Stop is called.
func (k *Kernel) Run() {
	k.stopped = false
	for !k.stopped && k.Step() {
	}
}

// RunUntil delivers events with timestamps <= horizon, then advances the
// clock to the horizon. Events beyond the horizon stay scheduled, so the
// simulation can be resumed with a later horizon.
func (k *Kernel) RunUntil(horizon Time) {
	if horizon < k.now {
		panic(fmt.Sprintf("sim: RunUntil horizon %v before now %v", horizon, k.now))
	}
	k.stopped = false
	k.limit = horizon
	for !k.stopped && k.Step() {
	}
	k.limit = Never
	if !k.stopped && k.now < horizon {
		k.now = horizon
	}
}

// Stop makes the current Run/RunUntil return after the in-flight event
// completes. It is safe to call from inside an event callback.
func (k *Kernel) Stop() { k.stopped = true }

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

// heapPop removes the minimum entry and sifts the tail down.
func (k *Kernel) heapPop() {
	n := len(k.cal) - 1
	k.cal[0] = k.cal[n]
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
