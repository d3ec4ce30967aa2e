// Package coalesce implements the paper's "merge and coalesce" scheme for
// pinpointing error–failure relationships (Figure 2):
//
//  1. time-based merge of a node's Test Log with system logs (its own and
//     the NAP's), ordering entries by timestamp;
//  2. tupling (Buckley–Siewiorek): events closer than a coalescence window
//     W are clustered into tuples;
//  3. relationship evidence: a tuple containing both a user-level failure
//     and system-level entries is evidence that those errors relate to that
//     failure; counting evidences weights the relationship (Table 2).
//
// The window is chosen by sensitivity analysis: the tuple-count-versus-W
// curve has a knee (the paper finds it at 330 s); before the knee tuples
// fragment (truncations), after it unrelated errors merge (collapses).
//
// The pipeline exists in two forms: the retained functions above
// (Merge → Tuples → RelateWithRadius) over complete logs, and
// StreamRelator, which extracts the same Evidence incrementally from an
// event stream while holding only O(event rate × radius) state — the
// streaming plane's evidence path, valid whenever radius ≤ window (the
// paper's 30 s ≤ 330 s).
package coalesce

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Event is one merged log record: either a user-level failure report or a
// system-level error entry.
type Event struct {
	At     sim.Time
	Node   string
	IsUser bool
	User   core.UserReport  // valid when IsUser
	Sys    core.SystemEntry // valid when !IsUser
}

// Merge builds the time-ordered event sequence from a Test Log and any
// number of system logs. Masked reports are excluded: they never manifested
// to the user, so they carry no error-failure evidence.
func Merge(reports []core.UserReport, entries ...[]core.SystemEntry) []Event {
	var out []Event
	for _, r := range reports {
		if r.Masked {
			continue
		}
		out = append(out, Event{At: r.At, Node: r.Node, IsUser: true, User: r})
	}
	for _, es := range entries {
		for _, e := range es {
			out = append(out, Event{At: e.At, Node: e.Node, Sys: e})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Tuple is one coalesced cluster of events.
type Tuple struct {
	Start, End sim.Time
	Events     []Event
}

// UserFailures lists the user-level failure types present in the tuple.
func (t *Tuple) UserFailures() []core.UserFailure {
	var out []core.UserFailure
	for _, e := range t.Events {
		if e.IsUser {
			out = append(out, e.User.Failure)
		}
	}
	return out
}

// Tuples clusters a time-ordered event sequence: an event joins the current
// tuple when it falls within window of the previous event (gap criterion),
// otherwise it begins a new tuple. A non-positive window panics.
func Tuples(events []Event, window sim.Time) []Tuple {
	if window <= 0 {
		panic(fmt.Sprintf("coalesce: non-positive window %v", window))
	}
	var out []Tuple
	for _, ev := range events {
		n := len(out)
		if n > 0 && ev.At-out[n-1].End <= window {
			out[n-1].Events = append(out[n-1].Events, ev)
			out[n-1].End = ev.At
			continue
		}
		out = append(out, Tuple{Start: ev.At, End: ev.At, Events: []Event{ev}})
	}
	return out
}

// Sensitivity sweeps the coalescence window and returns the tuple-count
// curve (y = tuples as a percentage of events, as in the paper's Figure 2
// inset). Windows must be strictly increasing.
func Sensitivity(events []Event, windows []sim.Time) *stats.Curve {
	var curve stats.Curve
	if len(events) == 0 {
		return &curve
	}
	for _, w := range windows {
		tuples := Tuples(events, w)
		pct := float64(len(tuples)) / float64(len(events)) * 100
		curve.Append(w.Seconds(), pct)
	}
	return &curve
}

// DefaultWindows is the sweep used by the Figure 2 reproduction: 10 s to
// 1200 s.
func DefaultWindows() []sim.Time {
	var out []sim.Time
	for s := 10; s <= 1200; s += 10 {
		out = append(out, sim.Time(s)*sim.Second)
	}
	return out
}

// PaperWindow is the coalescence window the paper selects at the knee of
// the sensitivity curve.
const PaperWindow = 330 * sim.Second

// Locality distinguishes where the system-level evidence was logged.
type Locality int

// Localities of evidence.
const (
	Local Locality = iota // the failing PANU's own system log
	NAP                   // the NAP's system log (error propagation)
)

// String names the locality.
func (l Locality) String() string {
	if l == NAP {
		return "NAP"
	}
	return "local"
}

// EvidenceKey identifies one cell of the error-failure relationship.
type EvidenceKey struct {
	Failure  core.UserFailure
	Source   core.SysSource
	Locality Locality
}

// Evidence accumulates relationship counts (the input to Table 2).
type Evidence struct {
	// Counts maps relationship cells to evidence counts.
	Counts map[EvidenceKey]int
	// FailureTotals counts tuples containing each user failure.
	FailureTotals map[core.UserFailure]int
	// NoRelationship counts user failures whose tuple held no system entry
	// (e.g. inquiry/scan failures, for which the paper found none).
	NoRelationship map[core.UserFailure]int
	// TotalFailures is the number of (unmasked) user failure occurrences.
	TotalFailures int
}

// NewEvidence allocates the maps.
func NewEvidence() *Evidence {
	return &Evidence{
		Counts:         make(map[EvidenceKey]int),
		FailureTotals:  make(map[core.UserFailure]int),
		NoRelationship: make(map[core.UserFailure]int),
	}
}

// RelateRadius bounds which entries inside a tuple count as evidence for a
// particular failure: only those within this distance of the failure
// instant. Gap-chained tuples can span long busy periods; without the
// radius, one node's errors would count as evidence for every other node's
// temporally-nearby failures, diluting the relationship percentages far
// below the paper's (e.g. PAN connect <- SDP 96.5 %).
const RelateRadius = 30 * sim.Second

// RelateWithRadius extracts error-failure evidence from tuples for one
// PANU: system entries logged by napNode count as NAP-side evidence,
// everything else as local. Within a tuple, an entry is evidence for a
// failure when it lies within radius of it (the paper's rule is
// RelateRadius; other radii are for sensitivity/ablation studies). The
// results accumulate into ev (pass a fresh Evidence or reuse one across
// nodes to aggregate a whole testbed).
func RelateWithRadius(ev *Evidence, tuples []Tuple, napNode string, radius sim.Time) {
	for i := range tuples {
		t := &tuples[i]
		failures := t.UserFailures()
		if len(failures) == 0 {
			continue
		}
		for _, fe := range t.Events {
			if !fe.IsUser {
				continue
			}
			f := fe.User.Failure
			ev.FailureTotals[f]++
			ev.TotalFailures++
			found := false
			for _, e := range t.Events {
				if e.IsUser {
					continue
				}
				gap := e.At - fe.At
				if gap < 0 {
					gap = -gap
				}
				if gap > radius {
					continue
				}
				loc := Local
				if e.Node == napNode {
					loc = NAP
				}
				ev.Counts[EvidenceKey{Failure: f, Source: e.Sys.Source, Locality: loc}]++
				found = true
			}
			if !found {
				ev.NoRelationship[f]++
			}
		}
	}
}

// RowTotal sums the evidence for one failure across sources and localities.
func (ev *Evidence) RowTotal(f core.UserFailure) int {
	total := 0
	for key, n := range ev.Counts {
		if key.Failure == f {
			total += n
		}
	}
	return total
}
