package l2cap

import (
	"fmt"

	"repro/internal/core"
)

// Segment is one baseband-layer fragment of an L2CAP PDU. Start fragments
// carry the L2CAP header (L_CH = start-of-PDU in the baseband payload
// header); the rest are continuations.
type Segment struct {
	Start bool
	Len   int // payload bytes carried, including the header on start frames
}

// SegPlan is the value-type segmentation plan of one SDU: Count fragments,
// each carrying Budget payload bytes except the last, which carries LastLen.
// It replaces materialised []Segment slices on the data-plane hot path
// (5.5M fragments per virtual day), where the slice allocation dominated the
// campaign's heap profile; iterate with Seg or Len instead.
type SegPlan struct {
	Count   int // number of fragments, always >= 1
	Budget  int // payload bytes per full fragment (the packet type's budget)
	LastLen int // payload bytes in the final fragment (1..Budget)
}

// PlanSDU computes the segmentation plan for an SDU of sduLen bytes over the
// given packet type: a 4-byte L2CAP header travels in the first fragment,
// and every fragment is bounded by the packet type's payload budget. It
// panics on non-positive SDU length — callers own the never-empty invariant.
func PlanSDU(sduLen int, pt core.PacketType) SegPlan {
	if sduLen <= 0 {
		panic(fmt.Sprintf("l2cap: non-positive SDU length %d", sduLen))
	}
	budget := pt.Payload()
	if budget <= 0 {
		panic(fmt.Sprintf("l2cap: packet type %v has no payload budget", pt))
	}
	total := sduLen + HeaderLen
	count := (total + budget - 1) / budget
	last := total - (count-1)*budget
	return SegPlan{Count: count, Budget: budget, LastLen: last}
}

// Len reports the payload length of fragment i (0-based). Out-of-range
// indices panic.
func (p SegPlan) Len(i int) int {
	if i < 0 || i >= p.Count {
		panic(fmt.Sprintf("l2cap: fragment index %d out of range [0,%d)", i, p.Count))
	}
	if i == p.Count-1 {
		return p.LastLen
	}
	return p.Budget
}

// Seg materialises fragment i as a Segment value (fragment 0 is the start).
func (p SegPlan) Seg(i int) Segment {
	return Segment{Start: i == 0, Len: p.Len(i)}
}

// Total reports the plan's total byte count (SDU plus L2CAP header).
func (p SegPlan) Total() int { return (p.Count-1)*p.Budget + p.LastLen }

// ReassemblyError classifies framing-state violations.
type ReassemblyError int

// Violations of the start/continuation protocol.
const (
	ErrNone              ReassemblyError = iota
	ErrContinuationFirst                 // continuation with no SDU in progress
	ErrStartMidSDU                       // new start before the previous SDU completed
	ErrOverflow                          // fragments exceed the expected SDU length
)

// String names the violation.
func (e ReassemblyError) String() string {
	switch e {
	case ErrNone:
		return "none"
	case ErrContinuationFirst:
		return "continuation-without-start"
	case ErrStartMidSDU:
		return "start-mid-sdu"
	case ErrOverflow:
		return "fragment-overflow"
	default:
		return fmt.Sprintf("ReassemblyError(%d)", int(e))
	}
}

// Reassembler rebuilds SDUs from fragments and detects the "unexpected start
// or continuation frames" condition of Table 1.
type Reassembler struct {
	inProgress bool
	expect     int // bytes still expected for the current SDU
	complete   int // SDUs fully reassembled
	violations int
}

// Expect arms the reassembler for an SDU of sduLen payload bytes.
func (r *Reassembler) expectTotal(sduLen int) int { return sduLen + HeaderLen }

// Feed consumes one fragment destined for an SDU of sduLen bytes and
// classifies it. ErrNone means the fragment was consumed cleanly.
func (r *Reassembler) Feed(seg Segment, sduLen int) ReassemblyError {
	switch {
	case seg.Start && r.inProgress:
		r.violations++
		// Resynchronise on the new start.
		r.expect = r.expectTotal(sduLen) - seg.Len
		r.inProgress = r.expect > 0
		return ErrStartMidSDU
	case !seg.Start && !r.inProgress:
		r.violations++
		return ErrContinuationFirst
	case seg.Start:
		r.expect = r.expectTotal(sduLen) - seg.Len
		if r.expect < 0 {
			r.violations++
			r.inProgress = false
			return ErrOverflow
		}
		r.inProgress = r.expect > 0
		if !r.inProgress {
			r.complete++
		}
		return ErrNone
	default:
		r.expect -= seg.Len
		if r.expect < 0 {
			r.violations++
			r.inProgress = false
			return ErrOverflow
		}
		if r.expect == 0 {
			r.inProgress = false
			r.complete++
		}
		return ErrNone
	}
}

// Complete reports the number of fully reassembled SDUs.
func (r *Reassembler) Complete() int { return r.complete }

// Violations reports the number of framing-state violations seen.
func (r *Reassembler) Violations() int { return r.violations }

// InProgress reports whether an SDU is partially assembled.
func (r *Reassembler) InProgress() bool { return r.inProgress }
