// Package bnep implements the Bluetooth Network Encapsulation Protocol: the
// Ethernet emulation over L2CAP that the PAN profile uses to carry IP, and
// the bnep0 virtual network interface whose creation/configuration race is
// behind the paper's "Bind failed" user failures.
//
// Table 1 failure modes carried here: "Failed to add a connection", "can't
// locate module bnep0", "bnep occupied".
package bnep

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/l2cap"
	"repro/internal/sim"
)

// MTU is the BNEP maximum transfer unit (the paper fixes L_S = L_R to this
// value, 1691 bytes, in the Figure 3b experiment).
const MTU = 1691

// Config parameterises the BNEP service's fault behaviour.
type Config struct {
	// ModuleMissingProb: the kernel module backing bnep0 cannot be located.
	ModuleMissingProb float64
	// OccupiedProb: the bnep device is still held by a previous connection.
	OccupiedProb float64
	// AddFailedProb: adding the connection to the bridge fails.
	AddFailedProb float64
	// SetupTime is the kernel-side interface build time — the first half of
	// the paper's T_H interval.
	SetupTime sim.Time
}

// DefaultConfig returns calibrated BNEP parameters.
func DefaultConfig() Config {
	return Config{
		ModuleMissingProb: 8e-6,
		OccupiedProb:      1e-5,
		AddFailedProb:     5e-6,
		SetupTime:         120 * sim.Millisecond,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ModuleMissingProb < 0 || c.ModuleMissingProb > 1 ||
		c.OccupiedProb < 0 || c.OccupiedProb > 1 ||
		c.AddFailedProb < 0 || c.AddFailedProb > 1 {
		return fmt.Errorf("bnep: probability out of range")
	}
	if c.SetupTime < 0 {
		return fmt.Errorf("bnep: negative setup time")
	}
	return nil
}

// Interface is the bnep0 virtual network interface. It exists once the BNEP
// channel is up, but is only usable for socket binds after the OS hotplug
// mechanism has configured it (Configured == true) — the T_C/T_H race.
//
// The Service reuses one Interface value for every connection; Gen tells
// the connections apart. Anything that acts on the interface later (the
// hotplug daemon's events) records the Gen it was issued for and leaves the
// interface alone once Gen has moved on.
type Interface struct {
	Name       string
	CreatedAt  sim.Time
	Configured bool
	Channel    *l2cap.Channel
	Gen        uint64 // 1 for the first interface created, then 2, ...
}

// Result reports a BNEP operation.
type Result struct {
	Dur sim.Time
	Err error
}

// Service is the BNEP layer of one node.
type Service struct {
	cfg   Config
	node  string
	rng   *rand.Rand
	sink  hci.Sink
	clock func() sim.Time

	// iface is the bnep0 interface, reused across connections (at most one
	// exists per PANU in the testbeds); up reports whether it exists now.
	iface Interface
	up    bool
}

// NewService builds the BNEP layer.
func NewService(cfg Config, node string, clock func() sim.Time, rng *rand.Rand, sink hci.Sink) *Service {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if clock == nil {
		panic("bnep: nil clock")
	}
	return &Service{cfg: cfg, node: node, clock: clock, rng: rng, sink: sink}
}

// fail logs and wraps a BNEP error.
func (s *Service) fail(code core.ErrorCode, op string) Result {
	if s.sink != nil {
		s.sink(code, op)
	}
	return Result{Err: core.NewSimError(code, op, s.node)}
}

// CreateChannel builds the bnep0 interface over an open L2CAP channel. On
// success the interface exists but is NOT configured: the OS hotplug layer
// flips Configured after its own delay (stack.Hotplug drives that). The
// returned interface is the Service's one reused value under a new Gen.
func (s *Service) CreateChannel(ch *l2cap.Channel) (*Interface, Result) {
	if ch == nil || ch.State != l2cap.StateOpen {
		return nil, s.fail(core.CodeBNEPAddFailed, "bnep.create")
	}
	switch u := s.rng.Float64(); {
	case u < s.cfg.ModuleMissingProb:
		return nil, s.fail(core.CodeBNEPModuleMissing, "bnep.create")
	case u < s.cfg.ModuleMissingProb+s.cfg.OccupiedProb:
		return nil, s.fail(core.CodeBNEPOccupied, "bnep.create")
	case u < s.cfg.ModuleMissingProb+s.cfg.OccupiedProb+s.cfg.AddFailedProb:
		return nil, s.fail(core.CodeBNEPAddFailed, "bnep.create")
	}
	s.iface = Interface{
		Name:      "bnep0",
		CreatedAt: s.clock(),
		Channel:   ch,
		Gen:       s.iface.Gen + 1,
	}
	s.up = true
	return &s.iface, Result{Dur: s.cfg.SetupTime}
}

// Interface returns the current bnep0 interface, or nil.
//
// Test seam: pan's TestConnectResetsConnInPlace.
func (s *Service) Interface() *Interface {
	if !s.up {
		return nil
	}
	return &s.iface
}

// Occupied reports whether a bnep interface currently exists; attempting a
// new PAN connection while it does is the "bnep occupied" condition.
//
// Test seam: stack's TestResetStackClearsState.
func (s *Service) Occupied() bool { return s.up }

// DestroyChannel tears the interface down (disconnect or connection reset).
func (s *Service) DestroyChannel() {
	s.up = false
}
