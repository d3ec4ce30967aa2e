package transport

// Expected reports the next expected reliable sequence number.
func (r *Receiver) Expected() uint8 { return r.expect }
