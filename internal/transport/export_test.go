package transport

// Expected reports the next expected reliable sequence number.
func (r *Receiver) Expected() uint8 { return r.expect }

// Faults reports the fault counters, for tests.
func (b *BCSPSim) Faults() (reorders, losses int) { return b.reorders, b.losses }

// Stalls reports how many stall episodes have begun, for tests.
func (u *USB) Stalls() int { return u.stalls }
