package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
)

// TestParsePiconetRange pins the -piconet-range grammar: half-open A:B with
// A >= 0 and B > A; everything else is rejected with a message naming the
// flag.
func TestParsePiconetRange(t *testing.T) {
	cases := []struct {
		in      string
		lo, hi  int
		wantErr string // "" = must parse
	}{
		{in: "0:4", lo: 0, hi: 4},
		{in: "2:3", lo: 2, hi: 3},
		{in: "10:64", lo: 10, hi: 64},
		{in: "", wantErr: "-piconet-range is required"},
		{in: "4", wantErr: "want A:B"},
		{in: "a:b", wantErr: "want A:B"},
		{in: "4:2", wantErr: "is empty or negative"},
		{in: "3:3", wantErr: "is empty or negative"},
		{in: "-1:2", wantErr: "is empty or negative"},
	}
	for _, tc := range cases {
		lo, hi, err := parsePiconetRange(tc.in)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("parsePiconetRange(%q) = %v, want [%d:%d)", tc.in, err, tc.lo, tc.hi)
			} else if lo != tc.lo || hi != tc.hi {
				t.Errorf("parsePiconetRange(%q) = [%d:%d), want [%d:%d)", tc.in, lo, hi, tc.lo, tc.hi)
			}
			continue
		}
		if err == nil {
			t.Errorf("parsePiconetRange(%q) = [%d:%d), want error containing %q", tc.in, lo, hi, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parsePiconetRange(%q) = %q, want error containing %q", tc.in, err, tc.wantErr)
		}
	}
}

// TestScatShardConfigCheck pins the scatternet-mode flag checks: a
// -probe-sample outside (0, 1] or NaN is rejected with btcampaign's
// message — a 0 used to reach the engine, which reads it as unset and runs
// the exhaustive plane — and the range must parse.
func TestScatShardConfigCheck(t *testing.T) {
	cases := []struct {
		sample  float64
		rng     string
		wantErr string // "" = must pass
	}{
		{sample: 1, rng: "0:4"},
		{sample: 0.25, rng: "2:3"},
		{sample: 0, rng: "0:4", wantErr: "-probe-sample 0 outside (0, 1]"},
		{sample: -0.5, rng: "0:4", wantErr: "-probe-sample -0.5 outside (0, 1]"},
		{sample: 1.5, rng: "0:4", wantErr: "-probe-sample 1.5 outside (0, 1]"},
		{sample: math.NaN(), rng: "0:4", wantErr: "-probe-sample is NaN"},
		{sample: 1, rng: "4:2", wantErr: "is empty or negative"},
	}
	for _, tc := range cases {
		cfg := scatShardConfig{probeSample: tc.sample, piconetRange: tc.rng}
		_, _, err := cfg.check()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("probe-sample %v range %q: %v", tc.sample, tc.rng, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("probe-sample %v range %q = %v, want an error containing %q", tc.sample, tc.rng, err, tc.wantErr)
		}
	}
}

// TestCheckLimits pins the range checks of the flags both modes share: a
// fault probability outside [0, 1] or NaN, a negative -delay or -timeout
// is rejected with a message naming the flag, where it used to read as off
// or forever. (collector's TestAgentConfigLimits covers -spill-budget.)
func TestCheckLimits(t *testing.T) {
	cases := []struct {
		fault   collector.FaultConfig
		timeout time.Duration
		wantErr string // "" = must pass
	}{
		{},
		{fault: collector.FaultConfig{Drop: 1, Duplicate: 0.5, Reorder: 0.1, DelayRate: 1, Delay: time.Second},
			timeout: time.Minute},
		{fault: collector.FaultConfig{Drop: math.NaN()}, wantErr: "-drop NaN outside [0, 1]"},
		{fault: collector.FaultConfig{Drop: 1.5}, wantErr: "-drop 1.5 outside [0, 1]"},
		{fault: collector.FaultConfig{Duplicate: -0.1}, wantErr: "-dup -0.1 outside [0, 1]"},
		{fault: collector.FaultConfig{Reorder: 2}, wantErr: "-reorder 2 outside [0, 1]"},
		{fault: collector.FaultConfig{DelayRate: math.NaN()}, wantErr: "-delay-rate NaN outside [0, 1]"},
		{fault: collector.FaultConfig{Delay: -time.Second}, wantErr: "-delay -1s is negative"},
		{timeout: -time.Second, wantErr: "-timeout -1s is negative"},
	}
	for _, tc := range cases {
		err := checkLimits(tc.fault, tc.timeout)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%+v timeout %v: %v", tc.fault, tc.timeout, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%+v timeout %v = %v, want an error containing %q", tc.fault, tc.timeout, err, tc.wantErr)
		}
	}
}
