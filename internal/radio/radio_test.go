package radio

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/sim"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(3, 4)) }

func TestDefaultConfigValid(t *testing.T) {
	for _, d := range []float64{0.5, 5, 7} {
		if err := DefaultConfig(d).Validate(); err != nil {
			t.Errorf("DefaultConfig(%v) invalid: %v", d, err)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero good sojourn", func(c *Config) { c.MeanGoodDur = 0 }},
		{"zero bad sojourn", func(c *Config) { c.MeanBadDur = 0 }},
		{"negative BER", func(c *Config) { c.BERGood = -1 }},
		{"BER above one", func(c *Config) { c.BERBad = 1.5 }},
		{"negative interference", func(c *Config) { c.InterferencePerHour = -1 }},
		{"negative distance", func(c *Config) { c.DistanceM = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			tt.mutate(&cfg)
			if cfg.Validate() == nil {
				t.Error("want validation error")
			}
		})
	}
}

func TestNewLinkPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	cfg := DefaultConfig(1)
	cfg.BERGood = 2
	NewLink(cfg, testRNG())
}

func TestSlotBERBetweenStates(t *testing.T) {
	cfg := DefaultConfig(0) // zero distance: no path-loss scaling
	cfg.InterferencePerHour = 0
	// Frequent fades so both states appear in a bounded scan.
	cfg.MeanGoodDur = 12 * sim.Second
	l := NewLink(cfg, testRNG())
	seenGood, seenBad := false, false
	for s := int64(0); s < 2_000_000 && !(seenGood && seenBad); s += 1 {
		ber := l.SlotBER(s)
		switch {
		case math.Abs(ber-cfg.BERGood) < 1e-12:
			seenGood = true
		case math.Abs(ber-cfg.BERBad) < 1e-12:
			seenBad = true
		default:
			t.Fatalf("slot BER %v is neither good nor bad rate", ber)
		}
	}
	if !seenGood || !seenBad {
		t.Errorf("chain never visited both states (good=%v bad=%v)", seenGood, seenBad)
	}
}

func TestBadStateFractionMatchesSojourns(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.InterferencePerHour = 0
	cfg.MeanGoodDur = 12 * sim.Second // enough sojourns for the estimate
	l := NewLink(cfg, testRNG())
	for s := int64(0); s < 5_000_000; s++ {
		l.SlotBER(s)
	}
	good, bad, _ := l.Stats()
	gotFrac := float64(bad) / float64(good+bad)
	wantFrac := float64(cfg.MeanBadDur) / float64(cfg.MeanBadDur+cfg.MeanGoodDur)
	if math.Abs(gotFrac-wantFrac)/wantFrac > 0.25 {
		t.Errorf("bad-state fraction = %v, want ~%v", gotFrac, wantFrac)
	}
}

func TestInterferenceRaisesBER(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.BERBad = cfg.BERGood // disable the chain's contribution
	cfg.InterferencePerHour = 3600
	cfg.MeanInterferenceDur = 100 * sim.Millisecond
	l := NewLink(cfg, testRNG())
	elevated := 0
	total := int64(10 * sim.Minute / sim.Slot)
	for s := int64(0); s < total; s++ {
		if l.SlotBER(s) > cfg.BERGood*2 {
			elevated++
		}
	}
	if elevated == 0 {
		t.Error("interference never raised BER")
	}
	_, _, bursts := l.Stats()
	// ~1 burst/second for 600 s; allow wide tolerance.
	if bursts < 300 || bursts > 1200 {
		t.Errorf("bursts = %d, want ~600", bursts)
	}
}

func TestDistanceScalesBER(t *testing.T) {
	near := DefaultConfig(0.5)
	far := DefaultConfig(7)
	near.InterferencePerHour, far.InterferencePerHour = 0, 0
	ln := NewLink(near, testRNG())
	lf := NewLink(far, testRNG())
	bn, bf := ln.SlotBER(0), lf.SlotBER(0)
	if bf <= bn {
		t.Errorf("far BER %v should exceed near BER %v", bf, bn)
	}
	// But only mildly: within a factor of 1.2 (distance is second-order).
	if bf/bn > 1.2 {
		t.Errorf("distance effect too strong: %v/%v", bf, bn)
	}
}

func TestMonotonicQueryEnforced(t *testing.T) {
	l := NewLink(DefaultConfig(1), testRNG())
	l.SlotBER(100)
	defer func() {
		if recover() == nil {
			t.Error("want panic for backwards slot query")
		}
	}()
	l.SlotBER(99)
}

func TestDeterminism(t *testing.T) {
	mk := func() []float64 {
		l := NewLink(DefaultConfig(5), rand.New(rand.NewPCG(9, 9)))
		out := make([]float64, 0, 1000)
		for s := int64(0); s < 1000; s++ {
			out = append(out, l.SlotBER(s*3))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
