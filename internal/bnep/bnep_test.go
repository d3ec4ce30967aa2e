package bnep

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/l2cap"
	"repro/internal/sim"
)

func openChannel() *l2cap.Channel {
	return &l2cap.Channel{LocalCID: 0x40, RemoteCID: 0x1040,
		PSM: l2cap.PSMBNEP, State: l2cap.StateOpen}
}

func newService(mutate func(*Config)) *Service {
	cfg := DefaultConfig()
	cfg.ModuleMissingProb, cfg.OccupiedProb, cfg.AddFailedProb = 0, 0, 0
	if mutate != nil {
		mutate(&cfg)
	}
	var now sim.Time
	return NewService(cfg, "Azzurro", func() sim.Time { return now },
		rand.New(rand.NewPCG(21, 22)), nil)
}

func TestCreateChannelHappyPath(t *testing.T) {
	s := newService(nil)
	iface, res := s.CreateChannel(openChannel())
	if res.Err != nil {
		t.Fatalf("create: %v", res.Err)
	}
	if iface == nil || iface.Name != "bnep0" {
		t.Fatalf("iface = %+v", iface)
	}
	if iface.Configured {
		t.Error("interface should not be configured before hotplug runs")
	}
	if !s.Occupied() {
		t.Error("service should be occupied")
	}
	s.DestroyChannel()
	if s.Occupied() || s.Interface() != nil {
		t.Error("destroy did not release the interface")
	}
}

func TestCreateChannelRequiresOpenL2CAP(t *testing.T) {
	s := newService(nil)
	_, res := s.CreateChannel(nil)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeBNEPAddFailed {
		t.Fatalf("nil channel: %v", res.Err)
	}
	closed := openChannel()
	closed.State = l2cap.StateClosed
	if _, res := s.CreateChannel(closed); res.Err == nil {
		t.Error("closed channel accepted")
	}
}

func TestCreateChannelFaults(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   core.ErrorCode
	}{
		{"module missing", func(c *Config) { c.ModuleMissingProb = 1 }, core.CodeBNEPModuleMissing},
		{"occupied", func(c *Config) { c.OccupiedProb = 1 }, core.CodeBNEPOccupied},
		{"add failed", func(c *Config) { c.AddFailedProb = 1 }, core.CodeBNEPAddFailed},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := newService(tt.mutate)
			_, res := s.CreateChannel(openChannel())
			var se *core.SimError
			if !errors.As(res.Err, &se) || se.Code != tt.want {
				t.Fatalf("got %v, want %v", res.Err, tt.want)
			}
		})
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.OccupiedProb = 1.1
	if bad.Validate() == nil {
		t.Error("probability > 1 should fail")
	}
	bad = DefaultConfig()
	bad.SetupTime = -1
	if bad.Validate() == nil {
		t.Error("negative setup time should fail")
	}
}
