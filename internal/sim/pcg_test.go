package sim

import (
	"math/rand/v2"
	"testing"
)

// TestPCGMatchesStdlib pins PCG to math/rand/v2's PCG-DXSM: over many
// seeds, including the all-zero and all-ones states, Uint64 equals
// rand.PCG.Uint64 and Float64 equals rand.Rand.Float64 draw for draw.
func TestPCGMatchesStdlib(t *testing.T) {
	seeds := rand.New(rand.NewPCG(1, 2))
	pairs := [][2]uint64{{0, 0}, {^uint64(0), ^uint64(0)}, {1, 0}, {0, 1}}
	for len(pairs) < 200 {
		pairs = append(pairs, [2]uint64{seeds.Uint64(), seeds.Uint64()})
	}
	for _, s := range pairs {
		ours, std := NewPCG(s[0], s[1]), rand.NewPCG(s[0], s[1])
		for i := 0; i < 500; i++ {
			if a, b := ours.Uint64(), std.Uint64(); a != b {
				t.Fatalf("seed %#x/%#x draw %d: Uint64 %#x, stdlib %#x", s[0], s[1], i, a, b)
			}
		}
		ours, stdRand := NewPCG(s[0], s[1]), rand.New(rand.NewPCG(s[0], s[1]))
		for i := 0; i < 500; i++ {
			if a, b := ours.Float64(), stdRand.Float64(); a != b {
				t.Fatalf("seed %#x/%#x draw %d: Float64 %v, stdlib %v", s[0], s[1], i, a, b)
			}
		}
	}
}

// TestRNGAndSourceShareOneStream proves World.RNG(name) and
// World.Source(name) are two views of one state: draws interleaved through
// both, by a seeded pattern, equal one stream's sequence, while a stream of
// another name stays untouched. A copied-and-restored Source state replays
// the same draws through the Rand.
func TestRNGAndSourceShareOneStream(t *testing.T) {
	mixed, ref := NewWorld(5), NewWorld(5)
	rng, src := mixed.RNG("arq.Verde"), mixed.Source("arq.Verde")
	other := mixed.RNG("l2cap.Verde")
	want, wantOther := ref.RNG("arq.Verde"), ref.RNG("l2cap.Verde")
	pick := rand.New(rand.NewPCG(6, 6))
	for i := 0; i < 2000; i++ {
		var got float64
		switch pick.IntN(3) {
		case 0:
			got = rng.Float64()
		case 1:
			got = src.Float64()
		default:
			saved := *src
			ahead := src.Float64()
			*src = saved
			if got = rng.Float64(); got != ahead {
				t.Fatalf("draw %d: rewound source replays %v, then %v", i, ahead, got)
			}
		}
		if w := want.Float64(); got != w {
			t.Fatalf("draw %d: interleaved %v, single stream %v", i, got, w)
		}
	}
	if a, b := other.Uint64(), wantOther.Uint64(); a != b {
		t.Fatalf("another stream moved: %#x, want %#x", a, b)
	}
	if got := len(mixed.rig.StreamNames()); got != 2 {
		t.Fatalf("rig holds %d streams, want 2", got)
	}
}
