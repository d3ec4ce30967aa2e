package coalesce

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// genStream builds a deterministic merged event stream for one PANU: bursts
// of mixed user failures and system entries (own node and NAP) separated by
// gaps both below and above the coalescence window, including exact-tie
// timestamps. The generator is a hand-rolled LCG so the fixture is identical
// on every platform.
func genStream(n int) []Event {
	const node, nap = "Verde", "Giallo"
	state := uint64(0x9E3779B97F4A7C15)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	var out []Event
	at := sim.Time(0)
	for len(out) < n {
		// Advance by 0..600 s; zero keeps ties in the fixture, >330 s splits
		// tuples, >30 s splits evidence radii.
		at += sim.Time(next(601)) * sim.Second
		switch next(4) {
		case 0:
			f := core.UserFailures()[next(len(core.UserFailures()))]
			out = append(out, Event{At: at, Node: node, IsUser: true,
				User: core.UserReport{At: at, Node: node, Failure: f}})
		case 1:
			src := core.SysSources()[next(len(core.SysSources()))]
			out = append(out, Event{At: at, Node: nap,
				Sys: core.SystemEntry{At: at, Node: nap, Source: src}})
		default:
			src := core.SysSources()[next(len(core.SysSources()))]
			out = append(out, Event{At: at, Node: node,
				Sys: core.SystemEntry{At: at, Node: node, Source: src}})
		}
	}
	return out
}

// feedStream pushes a merged event stream through a StreamRelator.
func feedStream(ev *Evidence, events []Event, napNode string, window, radius sim.Time) {
	sr := NewStreamRelator(ev, napNode, window, radius)
	for _, e := range events {
		if e.IsUser {
			sr.AddUser(e.At, e.User.Failure)
		} else {
			sr.AddSys(e.At, e.Node, e.Sys.Source)
		}
	}
	sr.Close()
}

// TestStreamRelatorMatchesRetained proves the streaming evidence extractor
// is exactly the retained pipeline (Tuples + RelateWithRadius) for
// radius <= window, across window/radius combinations including the paper's
// 330 s / 30 s and the radius == window edge.
func TestStreamRelatorMatchesRetained(t *testing.T) {
	events := genStream(4000)
	cases := []struct {
		name           string
		window, radius sim.Time
	}{
		{"paper", PaperWindow, RelateRadius},
		{"radius-equals-window", 120 * sim.Second, 120 * sim.Second},
		{"tight", 45 * sim.Second, 10 * sim.Second},
		{"wide", 900 * sim.Second, 300 * sim.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			retained := NewEvidence()
			RelateWithRadius(retained, Tuples(events, tc.window), "Giallo", tc.radius)
			streamed := NewEvidence()
			feedStream(streamed, events, "Giallo", tc.window, tc.radius)
			if !reflect.DeepEqual(retained, streamed) {
				t.Errorf("evidence diverges:\nretained %+v\nstreamed %+v", retained, streamed)
			}
		})
	}
}

// TestStreamRelatorEmptyAndSingleton covers the degenerate streams.
func TestStreamRelatorEmptyAndSingleton(t *testing.T) {
	ev := NewEvidence()
	sr := NewStreamRelator(ev, "Giallo", PaperWindow, RelateRadius)
	sr.Close()
	if ev.TotalFailures != 0 {
		t.Error("empty stream produced failures")
	}

	ev = NewEvidence()
	sr = NewStreamRelator(ev, "Giallo", PaperWindow, RelateRadius)
	sr.AddUser(sim.Second, core.UFPacketLoss)
	sr.Close()
	if ev.TotalFailures != 1 || ev.NoRelationship[core.UFPacketLoss] != 1 {
		t.Errorf("singleton failure: %+v", ev)
	}
}

// TestStreamRelatorRejectsBadConfig pins the precondition guards.
func TestStreamRelatorRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct{ w, r sim.Time }{
		{0, RelateRadius},
		{PaperWindow, 0},
		{RelateRadius, PaperWindow}, // radius > window
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic for window %v radius %v", tc.w, tc.r)
				}
			}()
			NewStreamRelator(NewEvidence(), "Giallo", tc.w, tc.r)
		}()
	}
}

// TestStreamRelatorPanicsOnTimeRegression pins the ordered-ingest invariant.
func TestStreamRelatorPanicsOnTimeRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for time regression")
		}
	}()
	sr := NewStreamRelator(NewEvidence(), "Giallo", PaperWindow, RelateRadius)
	sr.AddUser(10*sim.Second, core.UFPacketLoss)
	sr.AddUser(5*sim.Second, core.UFPacketLoss)
}
