package sim

import "math/rand/v2"

// World bundles the kernel and RNG rig that every simulated component needs.
// It is the single object threaded through the stack, the workload, and the
// fault injectors.
type World struct {
	*Kernel
	rig *Rig
}

// NewWorld returns a world at virtual time zero, seeded with seed.
func NewWorld(seed uint64) *World {
	return &World{Kernel: NewKernel(), rig: NewRig(seed)}
}

// RNG returns the named deterministic random stream.
func (w *World) RNG(name string) *rand.Rand { return w.rig.Stream(name) }

// Source returns the generator behind RNG(name); both share one state.
func (w *World) Source(name string) *PCG { return w.rig.Source(name) }
