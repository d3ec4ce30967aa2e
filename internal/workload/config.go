// Package workload implements BlueTest, the synthetic workload of the
// paper's collection infrastructure: clients on the PANUs and a server on
// the NAP, emulating Bluetooth PAN users around the clock.
//
// Each BlueTest cycle runs the paper's utilisation phases: an inquiry/scan
// (flag S), an SDP search for the NAP service (flag SDP), the PAN connection
// (BNEP over L2CAP) with the master/slave role switch, the socket bind, a
// data transfer of N packets of sizes L_S/L_R with baseband packet type B,
// the disconnection, and a Pareto-distributed passive off time T_W. The
// Random workload draws B binomially over the six ACL types and N and the
// sizes uniformly; the Realistic workload follows the traffic models of
// package traffic and runs 1–20 consecutive cycles per connection; the Fixed
// workload (N=10000, L_S=L_R=1691 B) is the special two-month experiment
// behind Figure 3b.
//
// The client is instrumented exactly as the paper describes: every API
// return state is checked, failures are classified into the user-level
// taxonomy, a failure report (with node status) lands in the Test Log, and
// the SIRA cascade (or the scenario's manual recovery) is triggered.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config parameterises one BlueTest client.
type Config struct {
	Kind     core.WorkloadKind
	Testbed  string
	Scenario recovery.Scenario
	Masking  recovery.Masking

	// FlagProb is the probability that the S (scan) and SDP flags are true
	// in a cycle; the paper draws both uniformly.
	FlagProb float64

	// RandomN bounds the random workload's packet count per cycle.
	RandomN stats.UniformInt
	// RandomLen bounds the random workload's L_S/L_R draw.
	RandomLen stats.UniformInt

	// OffTime is the passive off time T_W (Pareto, shape 1.5 per
	// Crovella–Bestavros).
	OffTime stats.Pareto

	// MaxCycles bounds consecutive cycles per connection (realistic WL).
	MaxCycles int

	// VolumeScale scales realistic transfer volumes (campaign speed knob).
	VolumeScale float64

	// FixedN / FixedLen parameterise the fixed workload.
	FixedN   int
	FixedLen int

	// BindDelay is the application's natural latency between PAN connect
	// and the socket bind — the window the T_C/T_H race lives in.
	BindDelay sim.Time
}

// DefaultRandom returns the Random workload configuration.
func DefaultRandom(testbed string, scenario recovery.Scenario) Config {
	cfg := Config{
		Kind:      core.WLRandom,
		Testbed:   testbed,
		Scenario:  scenario,
		FlagProb:  0.5,
		RandomN:   stats.UniformInt{Lo: 1, Hi: 120},
		RandomLen: stats.UniformInt{Lo: 64, Hi: 1691},
		OffTime:   stats.Pareto{Xm: 10, Alpha: 1.5},
		MaxCycles: 1,
		BindDelay: 300 * sim.Millisecond,
	}
	if scenario.Masked() {
		cfg.Masking = recovery.AllMasking()
	}
	return cfg
}

// DefaultRealistic returns the Realistic workload configuration.
func DefaultRealistic(testbed string, scenario recovery.Scenario) Config {
	cfg := DefaultRandom(testbed, scenario)
	cfg.Kind = core.WLRealistic
	cfg.MaxCycles = 20
	cfg.VolumeScale = 0.05
	return cfg
}

// DefaultFixed returns the Figure 3b fixed workload configuration.
func DefaultFixed(testbed string, scenario recovery.Scenario) Config {
	cfg := DefaultRandom(testbed, scenario)
	cfg.Kind = core.WLFixed
	cfg.FixedN = 10000
	cfg.FixedLen = 1691
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Kind == core.WLUnknown:
		return fmt.Errorf("workload: no kind")
	case c.Testbed == "":
		return fmt.Errorf("workload: no testbed name")
	case c.FlagProb < 0 || c.FlagProb > 1:
		return fmt.Errorf("workload: flag probability out of range")
	case c.Kind == core.WLRandom && (c.RandomN.Hi < c.RandomN.Lo || c.RandomN.Lo < 1):
		return fmt.Errorf("workload: bad random N bounds")
	case c.Kind == core.WLRealistic && (c.MaxCycles < 1 || c.MaxCycles > 20):
		return fmt.Errorf("workload: realistic cycles must be 1..20")
	case c.Kind == core.WLRealistic && c.VolumeScale <= 0:
		return fmt.Errorf("workload: non-positive volume scale")
	case c.Kind == core.WLFixed && (c.FixedN < 1 || c.FixedLen < 1):
		return fmt.Errorf("workload: bad fixed parameters")
	case c.OffTime.Xm <= 0 || c.OffTime.Alpha <= 0:
		return fmt.Errorf("workload: bad off-time Pareto")
	case c.BindDelay < 0:
		return fmt.Errorf("workload: negative bind delay")
	default:
		return nil
	}
}

// Counters accumulates per-client statistics during a campaign.
type Counters struct {
	Cycles      int
	Connections int
	BytesMoved  int64

	// Failures counts user-level failures by type (reported, unmasked).
	Failures map[core.UserFailure]int
	// Masked counts events suppressed by a masking strategy, by the failure
	// type they would have manifested as.
	Masked map[core.UserFailure]int

	// PacketsByType / LossesByType drive Figure 3a (usage and losses).
	// Dense arrays indexed by packet type: these are bumped once per
	// workload packet, where a map operation is measurable campaign cost.
	PacketsByType [core.NumPacketTypes]int64
	LossesByType  [core.NumPacketTypes]int64

	// IdleBeforeFailed / IdleBeforeClean accumulate the T_W preceding
	// failed and failure-free cycles on reused connections (the idle-time
	// analysis of §6).
	IdleBeforeFailed stats.Summary
	IdleBeforeClean  stats.Summary
}

// NewCounters allocates the maps.
func NewCounters() *Counters {
	return &Counters{
		Failures: make(map[core.UserFailure]int),
		Masked:   make(map[core.UserFailure]int),
	}
}

// TotalFailures sums reported failures.
//
// Test seam: the root BenchmarkAblationMaskingStrategies.
func (c *Counters) TotalFailures() int {
	n := 0
	for _, v := range c.Failures {
		n += v
	}
	return n
}

// TotalMasked sums masked events.
//
// Test seam: the root BenchmarkAblationMaskingStrategies.
func (c *Counters) TotalMasked() int {
	n := 0
	for _, v := range c.Masked {
		n += v
	}
	return n
}
