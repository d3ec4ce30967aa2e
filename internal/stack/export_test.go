package stack

import "repro/internal/sim"

// Uptime reports the time since the last (re)boot.
func (h *Host) Uptime() sim.Time { return h.World.Now() - h.upSince }

// LatentAt exposes the defect index for tests (-1 when absent).
func (p *Pipe) LatentAt() int { return p.latentAt }

// Timeouts reports the count of HAL timeouts logged.
func (h *Hotplug) Timeouts() int { return h.timeouts }
