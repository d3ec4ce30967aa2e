package sim

import "math/bits"

// PCG is a 128-bit PCG generator with the DXSM output function, bit for bit
// the generator of math/rand/v2's PCG: NewPCG(a, b).Uint64 yields the same
// sequence as rand.NewPCG(a, b).Uint64, and Float64 the same values as
// rand.New(rand.NewPCG(a, b)).Float64. Its state is two plain words, so a
// caller holding the *PCG can copy the state aside, draw ahead, and rewind
// by copying it back — what the data plane's run-length transfer kernel
// does to give back a draw the per-packet path must redraw.
type PCG struct {
	hi uint64
	lo uint64
}

// NewPCG returns a PCG seeded with the state words (seed1, seed2), as
// rand.NewPCG does.
//
// Test seam: TestPCGMatchesStdlib and baseband's TestCleanRunMatchesSendSDU.
func NewPCG(seed1, seed2 uint64) *PCG {
	return &PCG{hi: seed1, lo: seed2}
}

// Uint64 advances the state (state = state*mul + inc, mod 2^128) and returns
// the DXSM output of the new state.
func (p *PCG) Uint64() uint64 {
	const (
		mulHi = 2549297995355413924
		mulLo = 4865540595714422341
		incHi = 6364136223846793005
		incLo = 1442695040888963407
	)
	hi, lo := bits.Mul64(p.lo, mulLo)
	hi += p.hi*mulLo + p.lo*mulHi
	lo, c := bits.Add64(lo, incLo, 0)
	hi, _ = bits.Add64(hi, incHi, c)
	p.lo = lo
	p.hi = hi

	const cheapMul = 0xda942042e4dd58b5
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= lo | 1
	return hi
}

// Float64 returns a uniform float64 in [0, 1) from the next draw, exactly as
// rand.Rand.Float64 does over the same source.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()<<11>>11) / (1 << 53)
}
