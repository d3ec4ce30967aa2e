package l2cap

import "fmt"

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
