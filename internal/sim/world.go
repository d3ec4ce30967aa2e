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

// Rig exposes the RNG rig, for components that need to fork it.
func (w *World) Rig() *Rig { return w.rig }

// RNG returns the named deterministic random stream.
func (w *World) RNG(name string) *rand.Rand { return w.rig.Stream(name) }

// Source returns the generator behind RNG(name); both share one state.
func (w *World) Source(name string) *PCG { return w.rig.Source(name) }

// Seed reports the root seed of the world's rig.
func (w *World) Seed() uint64 { return w.rig.Seed() }
