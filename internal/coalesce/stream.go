package coalesce

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// StreamRelator extracts error-failure relationship evidence from one PANU's
// merged event stream incrementally, holding only the events that can still
// influence future evidence instead of the whole log. It produces exactly
// the Evidence that the retained pipeline — Tuples(Merge(...), window)
// followed by RelateWithRadius — extracts, for any radius <= window:
//
//   - Two events within radius of each other are always members of the same
//     tuple (every consecutive gap between them is <= radius <= window), so
//     evidence pairs never straddle a tuple boundary and pair counting can
//     ignore tuple structure entirely.
//   - A failure's NoRelationship verdict is final once the stream edge moves
//     more than radius past it (no future entry can pair with it), or when a
//     gap larger than the window closes its tuple (with radius <= window the
//     former always happens first or at the same event, so the gap check is
//     a formality that keeps the equivalence argument airtight).
//
// State is therefore bounded by the event rate times the radius — O(1) in
// campaign duration — which is what lets month-scale campaigns stream
// through a sink in constant memory.
type StreamRelator struct {
	ev      *Evidence
	napNode string
	window  sim.Time
	radius  sim.Time

	started bool
	last    sim.Time // time of the most recent event (open tuple end)

	fails []pendingFailure // failures younger than radius, awaiting matches
	sys   []recentEntry    // entries younger than radius
}

// pendingFailure is a user failure still inside the matching radius.
type pendingFailure struct {
	at    sim.Time
	f     core.UserFailure
	found bool
}

// recentEntry is a system entry still inside the matching radius.
type recentEntry struct {
	at  sim.Time
	src core.SysSource
	loc Locality
}

// NewStreamRelator builds a streaming relator for one PANU stream,
// accumulating into ev (share one Evidence across nodes and testbeds to
// aggregate a campaign, exactly like the retained RelateWithRadius). Entries logged by
// napNode count as NAP-side evidence. radius must not exceed window — the
// precondition of the streaming/retained equivalence (the retained
// RelateWithRadius remains available for radius ablations beyond it).
func NewStreamRelator(ev *Evidence, napNode string, window, radius sim.Time) *StreamRelator {
	if window <= 0 || radius <= 0 {
		panic(fmt.Sprintf("coalesce: non-positive window %v or radius %v", window, radius))
	}
	if radius > window {
		panic(fmt.Sprintf("coalesce: streaming relate needs radius <= window, got %v > %v", radius, window))
	}
	return &StreamRelator{ev: ev, napNode: napNode, window: window, radius: radius}
}

// advance moves the stream edge to t: it closes the open tuple if the gap
// exceeds the window, finalizes failures that fell out of the radius, and
// drops entries that can no longer pair with anything.
func (s *StreamRelator) advance(t sim.Time) {
	if s.started && t < s.last {
		panic(fmt.Sprintf("coalesce: stream time went backwards: %v after %v", t, s.last))
	}
	if s.started && t-s.last > s.window {
		// Gap criterion: the open tuple closed before t.
		s.flushFailures(len(s.fails))
		s.sys = s.sys[:0]
	} else {
		// Expire by radius. Both slices are time-ordered, so the survivors
		// are a suffix.
		cut := 0
		for cut < len(s.fails) && t-s.fails[cut].at > s.radius {
			cut++
		}
		s.flushFailures(cut)
		keep := 0
		for keep < len(s.sys) && t-s.sys[keep].at > s.radius {
			keep++
		}
		if keep > 0 {
			s.sys = s.sys[:copy(s.sys, s.sys[keep:])]
		}
	}
	s.started, s.last = true, t
}

// flushFailures finalizes the n oldest pending failures.
func (s *StreamRelator) flushFailures(n int) {
	for i := 0; i < n; i++ {
		if !s.fails[i].found {
			s.ev.NoRelationship[s.fails[i].f]++
		}
	}
	if n > 0 {
		s.fails = s.fails[:copy(s.fails, s.fails[n:])]
	}
}

// AddUser ingests one (unmasked) user-level failure at its log position.
// Events must arrive in the stream's merge order: non-decreasing time.
func (s *StreamRelator) AddUser(at sim.Time, f core.UserFailure) {
	s.advance(at)
	s.ev.FailureTotals[f]++
	s.ev.TotalFailures++
	found := false
	// Every retained entry is within radius of the edge, hence of this
	// failure; all of them are evidence.
	for _, e := range s.sys {
		s.ev.Counts[EvidenceKey{Failure: f, Source: e.src, Locality: e.loc}]++
		found = true
	}
	s.fails = append(s.fails, pendingFailure{at: at, f: f, found: found})
}

// AddSys ingests one system-level entry at its log position.
func (s *StreamRelator) AddSys(at sim.Time, node string, src core.SysSource) {
	s.advance(at)
	loc := Local
	if node == s.napNode {
		loc = NAP
	}
	// Every pending failure is within radius of the edge, hence of this
	// entry; the entry is evidence for all of them.
	for i := range s.fails {
		s.ev.Counts[EvidenceKey{Failure: s.fails[i].f, Source: src, Locality: loc}]++
		s.fails[i].found = true
	}
	s.sys = append(s.sys, recentEntry{at: at, src: src, loc: loc})
}

// Close finalizes the stream: failures still awaiting a match get their
// NoRelationship verdict. The relator must not be used afterwards.
func (s *StreamRelator) Close() {
	s.flushFailures(len(s.fails))
	s.sys = nil
}
