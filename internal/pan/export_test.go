package pan

// Rejected reports the count of slot-exhaustion rejections.
func (n *NAP) Rejected() int { return n.rejected }
