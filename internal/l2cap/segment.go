package l2cap

import (
	"fmt"

	"repro/internal/core"
)

// SegPlan is the value-type segmentation plan of one SDU: Count fragments,
// each carrying Budget payload bytes except the last, which carries LastLen.
// The data plane hands the three fields to the transmitter, which sends
// the fragments without materialising them (5.5M fragments per virtual
// day).
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
