package pan

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/bnep"
	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/l2cap"
	"repro/internal/sdp"
	"repro/internal/sim"
	"repro/internal/transport"
)

// fixture wires a PANU ("Verde") and a NAP ("Giallo") with fault-free
// defaults; tests mutate the configs to force specific failures.
type fixture struct {
	panu   *PANU
	nap    *NAP
	host   *hci.Host
	now    sim.Time
	connID uint64

	panuLogs []core.ErrorCode
	napLogs  []core.ErrorCode
}

type fixtureOpts struct {
	pan  func(*Config)
	bnep func(*bnep.Config)
	hci  func(*hci.Config)
}

func newFixture(t *testing.T, opts fixtureOpts) *fixture {
	t.Helper()
	f := &fixture{}
	clock := func() sim.Time { return f.now }
	panuSink := func(code core.ErrorCode, op string) { f.panuLogs = append(f.panuLogs, code) }
	napSink := func(code core.ErrorCode, op string) { f.napLogs = append(f.napLogs, code) }

	hcfg := hci.DefaultConfig()
	hcfg.TimeoutProbIdle, hcfg.TimeoutProbBusy, hcfg.InquiryFailProb = 0, 0, 0
	if opts.hci != nil {
		opts.hci(&hcfg)
	}
	f.host = hci.NewHost(hcfg, "Verde",
		transport.NewH4(transport.H4Config{BaudRate: 115200}),
		clock, rand.New(rand.NewPCG(31, 32)), panuSink)

	napHCICfg := hci.DefaultConfig()
	napHCICfg.TimeoutProbIdle, napHCICfg.TimeoutProbBusy, napHCICfg.InquiryFailProb = 0, 0, 0
	napHost := hci.NewHost(napHCICfg, "Giallo",
		transport.NewH4(transport.H4Config{BaudRate: 115200}),
		clock, rand.New(rand.NewPCG(33, 34)), napSink)

	lcfg := l2cap.DefaultConfig()
	lcfg.UnexpectedFrameProb, lcfg.DataFaultPerPacket = 0, 0
	mux := l2cap.NewMux(lcfg, "Verde", f.host, rand.New(rand.NewPCG(35, 36)), panuSink)

	bcfg := bnep.DefaultConfig()
	bcfg.ModuleMissingProb, bcfg.OccupiedProb, bcfg.AddFailedProb = 0, 0, 0
	if opts.bnep != nil {
		opts.bnep(&bcfg)
	}
	bsvc := bnep.NewService(bcfg, "Verde", clock, rand.New(rand.NewPCG(37, 38)), panuSink)

	scfg := sdp.DefaultServerConfig()
	scfg.RefuseProb, scfg.TimeoutProb, scfg.MissProb = 0, 0, 0
	server := sdp.NewServer(scfg, rand.New(rand.NewPCG(39, 40)), napSink)
	f.nap = NewNAP("Giallo", napHost, server)

	pcfg := DefaultConfig()
	pcfg.StaleCacheFailProb, pcfg.FreshFailProb = 0, 0
	pcfg.SwitchReqExtraTimeout = 0
	pcfg.SwitchCmdL2CAPProb, pcfg.SwitchCmdBNEPProb, pcfg.SwitchCmdHCIProb = 0, 0, 0
	if opts.pan != nil {
		opts.pan(&pcfg)
	}
	f.panu = NewPANU(pcfg, "Verde", f.host, mux, bsvc, &f.connID,
		rand.New(rand.NewPCG(41, 42)), panuSink)
	return f
}

func (f *fixture) baseband(t *testing.T) hci.Handle {
	t.Helper()
	hd, res := f.host.CreateConnection("Giallo")
	if res.Err != nil {
		t.Fatalf("baseband link: %v", res.Err)
	}
	f.now += 10 * sim.Second
	return hd
}

// connect runs PANU.Connect into a fresh Conn and returns it, or nil when
// the connect failed.
func (f *fixture) connect(hd hci.Handle, freshSDP bool) (*Conn, Result) {
	conn := new(Conn)
	res := f.panu.Connect(hd, f.nap, freshSDP, conn)
	if res.Err != nil {
		if conn.Open {
			panic("failed connect left the Conn open")
		}
		return nil, res
	}
	return conn, res
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.StaleCacheFailProb = -0.1
	if bad.Validate() == nil {
		t.Error("negative probability should fail")
	}
}

func TestConnectHappyPath(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	conn, res := f.connect(f.baseband(t), true)
	if res.Err != nil {
		t.Fatalf("connect: %v (stage %v)", res.Err, res.Stage)
	}
	if conn == nil || !conn.Open || conn.ID == 0 {
		t.Fatalf("conn = %+v", conn)
	}
	if conn.MasterIsNAP {
		t.Error("role should not be switched yet")
	}
	if f.nap.ActiveSlaves() != 1 {
		t.Errorf("ActiveSlaves = %d", f.nap.ActiveSlaves())
	}
	if conn.Iface == nil || conn.Iface.Name != "bnep0" {
		t.Error("no BNEP interface")
	}

	sres := f.panu.SwitchRole(conn, f.nap)
	if sres.Err != nil {
		t.Fatalf("switch: %v", sres.Err)
	}
	if !conn.MasterIsNAP {
		t.Error("switch did not record the new role")
	}

	f.panu.Disconnect(conn, f.nap)
	if conn.Open || f.nap.ActiveSlaves() != 0 {
		t.Error("disconnect did not release state")
	}
}

func TestConnectL2CAPStageFailure(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	// Dead handle: the failure must classify as the L2CAP stage.
	conn, res := f.connect(hci.Handle(555), true)
	if conn != nil || res.Err == nil {
		t.Fatal("expected failure")
	}
	if res.Stage != StageL2CAP {
		t.Errorf("stage = %v, want l2cap", res.Stage)
	}
}

func TestConnectStaleCacheFailure(t *testing.T) {
	f := newFixture(t, fixtureOpts{pan: func(c *Config) { c.StaleCacheFailProb = 1 }})
	conn, res := f.connect(f.baseband(t), false) // SDP skipped
	if conn != nil || res.Err == nil {
		t.Fatal("expected stale-cache failure")
	}
	if res.Stage != StagePAN {
		t.Errorf("stage = %v, want pan", res.Stage)
	}
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeSDPServiceMissing {
		t.Fatalf("want SDP evidence, got %v", res.Err)
	}
	// The evidence must land on the NAP's system log.
	if len(f.napLogs) != 1 || f.napLogs[0] != core.CodeSDPServiceMissing {
		t.Errorf("NAP logs = %v", f.napLogs)
	}
	// With a fresh search the same connection succeeds.
	conn, res = f.connect(f.baseband(t), true)
	if res.Err != nil {
		t.Fatalf("fresh connect failed: %v", res.Err)
	}
	if conn == nil || !conn.Open {
		t.Fatal("no connection")
	}
}

func TestConnectBNEPStageFailure(t *testing.T) {
	f := newFixture(t, fixtureOpts{bnep: func(c *bnep.Config) { c.ModuleMissingProb = 1 }})
	conn, res := f.connect(f.baseband(t), true)
	if conn != nil {
		t.Fatal("conn allocated despite BNEP failure")
	}
	if res.Stage != StagePAN {
		t.Errorf("stage = %v, want pan", res.Stage)
	}
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeBNEPModuleMissing {
		t.Fatalf("want BNEP module missing, got %v", res.Err)
	}
	if f.nap.ActiveSlaves() != 0 {
		t.Error("failed connect must not occupy a NAP slot")
	}
}

func TestNAPSlotExhaustion(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	conns := make([]*Conn, 0, MaxSlaves)
	for i := 0; i < MaxSlaves; i++ {
		conn, res := f.connect(f.baseband(t), true)
		if res.Err != nil {
			t.Fatalf("connect %d: %v", i, res.Err)
		}
		conns = append(conns, conn)
		// Each new PAN connection needs a free bnep slot on a real PANU;
		// release the local interface to isolate the NAP-side bound.
		f.panu.bnep.DestroyChannel()
	}
	if f.nap.ActiveSlaves() != MaxSlaves {
		t.Fatalf("ActiveSlaves = %d", f.nap.ActiveSlaves())
	}
	conn, res := f.connect(f.baseband(t), true)
	if conn != nil || res.Err == nil {
		t.Fatal("8th slave admitted")
	}
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeHCICommandTimeout || se.Op != "nap.slots_full" {
		t.Errorf("8th slave: want a nap.slots_full timeout, got %v", res.Err)
	}
	f.panu.Disconnect(conns[0], f.nap)
	if f.nap.ActiveSlaves() != MaxSlaves-1 {
		t.Errorf("slot not released: %d", f.nap.ActiveSlaves())
	}
}

func TestSwitchRoleRequestLegFailure(t *testing.T) {
	f := newFixture(t, fixtureOpts{pan: func(c *Config) { c.SwitchReqExtraTimeout = 1 }})
	conn, res := f.connect(f.baseband(t), true)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	sres := f.panu.SwitchRole(conn, f.nap)
	if sres.Err == nil {
		t.Fatal("expected request-leg failure")
	}
	if !RequestLegFailed(sres.Err) {
		t.Errorf("RequestLegFailed = false for %v", sres.Err)
	}
	if conn.MasterIsNAP {
		t.Error("failed switch must not change roles")
	}
}

func TestSwitchRoleCommandLegFailures(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   core.ErrorCode
	}{
		{"l2cap", func(c *Config) { c.SwitchCmdL2CAPProb = 1 }, core.CodeL2CAPUnexpectedFrame},
		{"bnep", func(c *Config) { c.SwitchCmdBNEPProb = 1 }, core.CodeBNEPOccupied},
		{"hci", func(c *Config) { c.SwitchCmdHCIProb = 1 }, core.CodeHCIInvalidHandle},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := newFixture(t, fixtureOpts{pan: tt.mutate})
			conn, res := f.connect(f.baseband(t), true)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			sres := f.panu.SwitchRole(conn, f.nap)
			var se *core.SimError
			if !errors.As(sres.Err, &se) || se.Code != tt.want {
				t.Fatalf("got %v, want %v", sres.Err, tt.want)
			}
			if RequestLegFailed(sres.Err) {
				t.Error("command-leg failure misclassified as request leg")
			}
		})
	}
}

func TestSwitchRoleOnClosedConn(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	if res := f.panu.SwitchRole(nil, f.nap); res.Err == nil {
		t.Error("switch on nil conn should fail")
	}
	conn, _ := f.connect(f.baseband(t), true)
	f.panu.Disconnect(conn, f.nap)
	if res := f.panu.SwitchRole(conn, f.nap); res.Err == nil {
		t.Error("switch on closed conn should fail")
	}
}

func TestDisconnectIdempotent(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	conn, _ := f.connect(f.baseband(t), true)
	f.panu.Disconnect(conn, f.nap)
	// Second disconnect is a no-op, not a crash.
	if res := f.panu.Disconnect(conn, f.nap); res.Err != nil {
		t.Errorf("double disconnect: %v", res.Err)
	}
}

func TestConnIDsAreUnique(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	seen := map[uint64]bool{}
	for i := 0; i < 5; i++ {
		conn, res := f.connect(f.baseband(t), true)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if seen[conn.ID] {
			t.Fatalf("duplicate conn ID %d", conn.ID)
		}
		seen[conn.ID] = true
		f.panu.Disconnect(conn, f.nap)
	}
}

func TestConnectResetsConnInPlace(t *testing.T) {
	f := newFixture(t, fixtureOpts{})
	var conn Conn
	for i := 0; i < 3; i++ {
		if res := f.panu.Connect(f.baseband(t), f.nap, true, &conn); res.Err != nil {
			t.Fatal(res.Err)
		}
		if !conn.Open || conn.MasterIsNAP || conn.Channel.State != l2cap.StateOpen {
			t.Fatalf("connect %d: conn = %+v", i, conn)
		}
		if i > 0 && conn.Iface != f.panu.bnep.Interface() {
			t.Fatalf("connect %d: Iface is not the service's interface", i)
		}
		if res := f.panu.SwitchRole(&conn, f.nap); res.Err != nil {
			t.Fatal(res.Err)
		}
		f.panu.Disconnect(&conn, f.nap)
		if f.nap.ActiveSlaves() != 0 || f.panu.mux.OpenChannels() != 0 {
			t.Fatalf("disconnect %d left a slot or a channel behind", i)
		}
	}
	// A failed connect leaves the reused Conn closed.
	if res := f.panu.Connect(hci.Handle(555), f.nap, true, &conn); res.Err == nil || conn.Open {
		t.Fatalf("connect on a dead handle: %v, open %v", res.Err, conn.Open)
	}
}

func TestStageStrings(t *testing.T) {
	for _, s := range []Stage{StageNone, StageL2CAP, StagePAN, StageSwitch, StageTransfer} {
		if s.String() == "" {
			t.Errorf("empty stage name for %d", int(s))
		}
	}
}
