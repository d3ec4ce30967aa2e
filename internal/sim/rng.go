package sim

import (
	"hash/fnv"
	"math/rand/v2"
	"sync"
)

// Rig hands out deterministic, named random-number streams. Two components
// asking for differently named streams never perturb each other's sequences,
// so adding a new consumer does not shift the randomness seen by existing
// ones — the property that keeps calibrated campaigns stable as the codebase
// grows.
type Rig struct {
	seed uint64

	mu      sync.Mutex
	streams map[string]*stream
}

// stream is one named stream: the generator and the rand.Rand drawing from
// it, in one allocation, so Stream and Source hand out views of one state.
type stream struct {
	src PCG
	rng rand.Rand
}

// NewRig returns a rig rooted at seed. Equal seeds yield identical stream
// families.
func NewRig(seed uint64) *Rig {
	return &Rig{seed: seed, streams: make(map[string]*stream)}
}

// Stream returns the RNG for name, creating it on first use. The stream is
// seeded from a hash of (root seed, name), so the mapping is stable across
// runs and processes.
func (r *Rig) Stream(name string) *rand.Rand { return &r.stream(name).rng }

// Source returns the generator behind Stream(name): draws through either
// advance the same state, so a caller may draw from the source directly
// (and rewind it by copying its state) between draws through the Rand.
func (r *Rig) Source(name string) *PCG { return &r.stream(name).src }

// stream returns the named stream, creating it on first use.
func (r *Rig) stream(name string) *stream {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.streams[name]; ok {
		return s
	}
	h := fnv.New64a()
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(r.seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(name))
	seed1 := h.Sum64()
	h.Write([]byte{0xA5}) // decorrelate the second PCG word
	seed2 := h.Sum64()
	s := &stream{src: PCG{hi: seed1, lo: seed2}}
	s.rng = *rand.New(&s.src)
	r.streams[name] = s
	return s
}
