package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Wire snapshots for the distributed metro plane: a scatternet campaign run
// as real OS processes ships per-piconet fold contributions and the overlay's
// rollup partial through the collector's session protocol, and the sink's
// district keyspaces persist their running fold across kill -9. Everything
// here is the exact-serialization discipline of checkpoint.go applied to the
// roll-up tier: integer counts stay integers, float64 fields round-trip
// through Go's JSON encoding bit-exactly, and every map that would
// de-determinize the bytes ships as a sorted slice.

// MetroEvent is the exported wire view of one deployment-trace event: the
// unmasked failure plus the (piconet, within-piconet fold position) pair that
// makes the deployment sort key total.
type MetroEvent struct {
	Ev      DependEvent `json:"ev"`
	Piconet int         `json:"piconet"`
	Seq     int         `json:"seq"`
}

// ScatternetFoldSnapshot is the serializable state of a ScatternetFold — what
// a district sink checkpoints after every applied partial and exports when
// its piconet range completes. Masked travels separately from Agg because the
// fold's Depend accumulator is stale by construction until Finalize rebuilds
// it from the trace.
type ScatternetFoldSnapshot struct {
	Scenario string              `json:"scenario"`
	Agg      *AggregatesSnapshot `json:"agg,omitempty"`
	Masked   int                 `json:"masked"`
	Trace    []MetroEvent        `json:"trace,omitempty"`
	Rows     []PiconetRow        `json:"rows,omitempty"`
}

// Snapshot captures the fold's exact state (the fold keeps ownership and may
// continue folding afterwards; the snapshot shares no mutable state with it).
func (f *ScatternetFold) Snapshot() *ScatternetFoldSnapshot {
	snap := &ScatternetFoldSnapshot{Scenario: f.scenario, Masked: f.masked}
	if f.agg != nil {
		snap.Agg = f.agg.Snapshot()
	}
	snap.Trace = make([]MetroEvent, len(f.trace))
	for i, me := range f.trace {
		snap.Trace[i] = MetroEvent{Ev: me.ev, Piconet: me.group, Seq: me.pos}
	}
	snap.Rows = append([]PiconetRow(nil), f.rows...)
	return snap
}

// RestoreScatternetFold rebuilds a fold mid-campaign; folding more piconets
// into it and finalizing is bit-identical to never having snapshotted.
func RestoreScatternetFold(snap *ScatternetFoldSnapshot) (*ScatternetFold, error) {
	if snap == nil {
		return nil, fmt.Errorf("analysis: nil scatternet fold snapshot")
	}
	f := NewScatternetFold(snap.Scenario)
	if snap.Agg != nil {
		a, err := RestoreAggregates(snap.Agg)
		if err != nil {
			return nil, err
		}
		f.agg = a
	}
	f.masked = snap.Masked
	f.trace = make([]taggedEvent, len(snap.Trace))
	for i, me := range snap.Trace {
		f.trace[i] = taggedEvent{ev: me.Ev, group: me.Piconet, pos: me.Seq}
	}
	f.rows = append([]PiconetRow(nil), snap.Rows...)
	return f, nil
}

// PiconetPartial is one finished piconet campaign on the wire: the streaming
// aggregates plus the fold-ordered depend trace — exactly the AddPiconet
// arguments, serialized.
type PiconetPartial struct {
	Piconet int                 `json:"piconet"`
	Agg     *AggregatesSnapshot `json:"agg"`
	Trace   []DependEvent       `json:"trace,omitempty"`
}

// AddPartial restores a wire partial's aggregates and folds them; the
// AddPiconet validation (trace length vs accumulated failures, window/radius
// agreement) applies unchanged.
func (f *ScatternetFold) AddPartial(p *PiconetPartial) error {
	if p == nil || p.Agg == nil {
		return fmt.Errorf("analysis: scatternet partial without aggregates")
	}
	agg, err := RestoreAggregates(p.Agg)
	if err != nil {
		return err
	}
	return f.AddPiconet(p.Piconet, agg, p.Trace)
}

// BridgeAccumSnapshot is the serializable state of a BridgeAccum (the two
// Welford summaries need explicit snapshots; everything else is exported).
type BridgeAccumSnapshot struct {
	Bridge         string                `json:"bridge"`
	Device         string                `json:"device"`
	Serves         []int                 `json:"serves,omitempty"`
	Hops           int                   `json:"hops"`
	Relayed        int                   `json:"relayed"`
	RelayLost      int                   `json:"relay_lost"`
	RelayCorrupted int                   `json:"relay_corrupted"`
	Outages        int                   `json:"outages"`
	SysErrors      int                   `json:"sys_errors"`
	FailureKinds   []FailureKindCount    `json:"failure_kinds,omitempty"`
	Downtime       stats.SummarySnapshot `json:"downtime"`
	RelayLatency   stats.SummarySnapshot `json:"relay_latency"`
	Coupling       []*BridgeCoupling     `json:"coupling,omitempty"`
}

// FailureKindCount is one failure-classification count (the map ships as
// sorted pairs so the wire bytes are deterministic).
type FailureKindCount struct {
	Kind  int `json:"kind"`
	Count int `json:"count"`
}

// Snapshot captures the accumulator's exact state.
func (a *BridgeAccum) Snapshot() *BridgeAccumSnapshot {
	snap := &BridgeAccumSnapshot{
		Bridge: a.Bridge, Device: a.Device,
		Serves: append([]int(nil), a.Serves...),
		Hops:   a.Hops, Relayed: a.Relayed,
		RelayLost: a.RelayLost, RelayCorrupted: a.RelayCorrupted,
		Outages: a.Outages, SysErrors: a.SysErrors,
		Downtime:     a.Downtime.Snapshot(),
		RelayLatency: a.RelayLatency.Snapshot(),
	}
	for kind := range a.FailuresByKind {
		snap.FailureKinds = append(snap.FailureKinds,
			FailureKindCount{Kind: int(kind), Count: a.FailuresByKind[kind]})
	}
	sortFailureKinds(snap.FailureKinds)
	for _, c := range a.Coupling {
		cc := *c
		snap.Coupling = append(snap.Coupling, &cc)
	}
	return snap
}

// sortFailureKinds orders failure-kind counts by kind in place (an
// insertion sort: a bridge sees only a handful of kinds).
func sortFailureKinds(s []FailureKindCount) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Kind < s[j-1].Kind; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// RestoreBridgeAccum rebuilds the accumulator.
func RestoreBridgeAccum(snap *BridgeAccumSnapshot) *BridgeAccum {
	a := NewBridgeAccum(snap.Bridge, snap.Device, snap.Serves)
	a.Hops, a.Relayed = snap.Hops, snap.Relayed
	a.RelayLost, a.RelayCorrupted = snap.RelayLost, snap.RelayCorrupted
	a.Outages, a.SysErrors = snap.Outages, snap.SysErrors
	for _, kc := range snap.FailureKinds {
		a.FailuresByKind[core.UserFailure(kc.Kind)] = kc.Count
	}
	a.Downtime = stats.RestoreSummary(snap.Downtime)
	a.RelayLatency = stats.RestoreSummary(snap.RelayLatency)
	for _, c := range snap.Coupling {
		cc := *c
		a.Coupling = append(a.Coupling, &cc)
	}
	return a
}

// RelayDepthBin is one depth's delay summary (sorted-slice form of ByDepth).
type RelayDepthBin struct {
	Depth   int                   `json:"depth"`
	Summary stats.SummarySnapshot `json:"summary"`
}

// RelayDepthSnapshot is the serializable state of a RelayDepthAccum.
type RelayDepthSnapshot struct {
	Bins        []RelayDepthBin `json:"bins,omitempty"`
	Unreachable int             `json:"unreachable"`
}

// Snapshot captures the accumulator's exact state, bins ascending by depth.
func (a *RelayDepthAccum) Snapshot() *RelayDepthSnapshot {
	snap := &RelayDepthSnapshot{Unreachable: a.Unreachable}
	for _, d := range a.Depths() {
		snap.Bins = append(snap.Bins, RelayDepthBin{Depth: d, Summary: a.ByDepth[d].Snapshot()})
	}
	return snap
}

// RestoreRelayDepthAccum rebuilds the accumulator.
func RestoreRelayDepthAccum(snap *RelayDepthSnapshot) *RelayDepthAccum {
	a := NewRelayDepthAccum()
	a.Unreachable = snap.Unreachable
	for _, bin := range snap.Bins {
		s := stats.RestoreSummary(bin.Summary)
		a.ByDepth[bin.Depth] = &s
	}
	return a
}

// OverlayPartial is the bridge overlay's rollup contribution on the wire. The
// overlay owner performs the order-sensitive Welford merges itself — the
// all-bridge summary merges bridge rows in row order and the relay-depth
// table merges the per-source partials in ascending source order, exactly the
// single-process rollup's orders — so the receiving side never has to know an
// order it could get wrong.
type OverlayPartial struct {
	BridgeCount int                  `json:"bridge_count"`
	Bridges     *BridgeAccumSnapshot `json:"bridges,omitempty"`
	RelayDepth  *RelayDepthSnapshot  `json:"relay_depth,omitempty"`
	Redundancy  []*RedundancyGroup   `json:"redundancy,omitempty"`
}
