package workload

// Stop halts the client after the current phase.
func (c *Client) Stop() { c.stopped = true }
