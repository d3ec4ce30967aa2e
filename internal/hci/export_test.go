package hci

// Stats reports fault counters.
func (h *Host) Stats() (timeouts, invalidHandles int) {
	return h.timeouts, h.invalidHandles
}
