package stack

// LatentAt exposes the defect index for tests (-1 when absent).
func (p *Pipe) LatentAt() int { return p.latentAt }
