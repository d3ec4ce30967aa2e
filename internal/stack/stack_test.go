package stack

import (
	"errors"
	"testing"

	"repro/internal/bnep"
	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/pan"
	"repro/internal/sim"
	"repro/internal/transport"
)

// quietConfig returns a host config with all spontaneous faults disabled so
// tests can force exactly one mechanism at a time.
func quietConfig(distance float64) Config {
	cfg := DefaultHostConfig(distance)
	cfg.HCI.TimeoutProbIdle, cfg.HCI.TimeoutProbBusy, cfg.HCI.InquiryFailProb = 0, 0, 0
	cfg.L2CAP.UnexpectedFrameProb, cfg.L2CAP.DataFaultPerPacket = 0, 0
	cfg.BNEP.ModuleMissingProb, cfg.BNEP.OccupiedProb, cfg.BNEP.AddFailedProb = 0, 0, 0
	cfg.PAN.StaleCacheFailProb, cfg.PAN.FreshFailProb = 0, 0
	cfg.PAN.SwitchReqExtraTimeout = 0
	cfg.PAN.SwitchCmdL2CAPProb, cfg.PAN.SwitchCmdBNEPProb, cfg.PAN.SwitchCmdHCIProb = 0, 0, 0
	cfg.SDP.RefuseProb, cfg.SDP.TimeoutProb, cfg.SDP.MissProb = 0, 0, 0
	cfg.Hotplug.DefectExtendProb, cfg.Hotplug.DefectLossProb = 0, 0
	cfg.Radio.BERGood, cfg.Radio.BERBad = 0, 0
	cfg.Radio.InterferencePerHour = 0
	cfg.LatentDefectProb = 0
	return cfg
}

type bed struct {
	world  *sim.World
	nap    *Host
	panu   *Host
	connID uint64
	logs   []core.ErrorCode
}

func newBed(t testing.TB, mutate func(panu, nap *Config), osInfo OSInfo) *bed {
	t.Helper()
	b := &bed{world: sim.NewWorld(99)}
	sink := func(code core.ErrorCode, op string) { b.logs = append(b.logs, code) }
	panuCfg := quietConfig(5)
	napCfg := quietConfig(0)
	if mutate != nil {
		mutate(&panuCfg, &napCfg)
	}
	b.nap = NewHost(napCfg, b.world, "Giallo",
		OSInfo{Family: "Linux", Distribution: "Mandrake", BootTime: 90 * sim.Second, AppRestartTime: 8 * sim.Second},
		0, false, true,
		transport.NewUSB(transport.DefaultUSBConfig(), "Giallo", func() sim.Time { return b.world.Now() }, b.world.RNG("usb.Giallo")),
		&b.connID, sink)
	b.panu = NewHost(panuCfg, b.world, "Verde", osInfo, 5, false, false,
		transport.NewH4(transport.H4Config{BaudRate: 115200}),
		&b.connID, sink)
	return b
}

// count reports how many entries with code the hosts have logged.
func (b *bed) count(code core.ErrorCode) int {
	n := 0
	for _, c := range b.logs {
		if c == code {
			n++
		}
	}
	return n
}

func defaultOS() OSInfo {
	return OSInfo{Family: "Linux", Distribution: "Mandrake",
		BootTime: 90 * sim.Second, AppRestartTime: 8 * sim.Second}
}

// connect establishes baseband + PAN, returning the connection and the time
// PAN connect completed.
func (b *bed) connect(t testing.TB) (*pan.Conn, sim.Time) {
	t.Helper()
	hd, res := b.panu.HCI.CreateConnection("Giallo")
	if res.Err != nil {
		t.Fatalf("baseband: %v", res.Err)
	}
	b.world.RunUntil(b.world.Now() + 10*sim.Second)
	conn := new(pan.Conn)
	if cres := b.panu.PANU.Connect(hd, b.nap.NAP, true, conn); cres.Err != nil {
		t.Fatalf("pan connect: %v", cres.Err)
	}
	b.panu.Hotplug.OnCreated(conn.Iface)
	return conn, b.world.Now()
}

func TestHostAssembly(t *testing.T) {
	b := newBed(t, nil, defaultOS())
	if b.nap.NAP == nil || b.nap.SDPServer == nil {
		t.Error("NAP host missing NAP role")
	}
	if b.nap.PANU != nil || b.nap.Tx != nil {
		t.Error("NAP host should not have PANU role or data plane")
	}
	if b.panu.PANU == nil || b.panu.Tx == nil || b.panu.Link == nil {
		t.Error("PANU host missing data plane")
	}
	if b.panu.SDPServer != nil {
		t.Error("PANU should not run an SDP server")
	}
	// The NAP registers its service record on construction.
	if b.nap.SDPServer.Records() != 1 {
		t.Errorf("NAP records = %d, want 1", b.nap.SDPServer.Records())
	}
}

func TestBindRaceBeforeTC(t *testing.T) {
	b := newBed(t, nil, defaultOS())
	conn, connectedAt := b.connect(t)
	// Bind immediately: inside the T_C window.
	err := b.panu.Bind(conn, connectedAt)
	var se *core.SimError
	if !errors.As(err, &se) || se.Code != core.CodeHCIInvalidHandle {
		t.Fatalf("bind before T_C: %v, want HCI invalid handle", err)
	}
}

func TestBindRaceBeforeTH(t *testing.T) {
	// Defective HAL manifesting as a late event: configuration takes
	// DefectDelayFactor longer, so a bind after T_C but quickly still finds
	// the interface unconfigured.
	osInfo := defaultOS()
	osInfo.Distribution = "Fedora"
	osInfo.HALDefect = true
	b := newBed(t, func(panu, nap *Config) {
		panu.Hotplug.DefectExtendProb = 1
	}, osInfo)
	conn, connectedAt := b.connect(t)
	// Advance past T_C but not past the defective T_H.
	b.world.RunUntil(connectedAt + b.panu.cfg.TCWindow + 50*sim.Millisecond)
	err := b.panu.Bind(conn, connectedAt)
	var se *core.SimError
	if !errors.As(err, &se) || se.Code != core.CodeBNEPModuleMissing {
		t.Fatalf("bind before T_H: %v, want BNEP module missing", err)
	}
}

func TestBindSucceedsAfterHotplug(t *testing.T) {
	b := newBed(t, nil, defaultOS())
	conn, connectedAt := b.connect(t)
	b.world.RunUntil(connectedAt + 5*sim.Second)
	if err := b.panu.Bind(conn, connectedAt); err != nil {
		t.Fatalf("bind after T_C+T_H: %v", err)
	}
}

func TestBindMaskingWaitsOutTheRace(t *testing.T) {
	osInfo := defaultOS()
	osInfo.HALDefect = true
	b := newBed(t, nil, osInfo)
	conn, connectedAt := b.connect(t)
	wait := b.panu.WaitForBind(conn, connectedAt)
	if wait <= 0 {
		t.Fatal("masking should require a wait right after connect")
	}
	b.world.RunUntil(b.world.Now() + wait)
	if err := b.panu.Bind(conn, connectedAt); err != nil {
		t.Fatalf("masked bind still failed: %v", err)
	}
}

func TestHotplugLostEventLogsHALTimeout(t *testing.T) {
	osInfo := defaultOS()
	osInfo.HALDefect = true
	b := newBed(t, func(panu, nap *Config) {
		panu.Hotplug.DefectLossProb = 1
	}, osInfo)
	conn, connectedAt := b.connect(t)
	b.world.RunUntil(connectedAt + 30*sim.Second)
	if conn.Iface.Configured {
		t.Fatal("lost event should leave interface unconfigured")
	}
	if n := b.count(core.CodeHotplugTimeout); n != 1 {
		t.Errorf("system log holds %d HAL timeouts, want 1", n)
	}
	// Masking kicks the daemon and recovers.
	wait := b.panu.WaitForBind(conn, connectedAt)
	b.world.RunUntil(b.world.Now() + wait)
	if err := b.panu.Bind(conn, connectedAt); err != nil {
		t.Fatalf("kick did not recover: %v", err)
	}
}

func TestPipeDeliversOnCleanChannel(t *testing.T) {
	b := newBed(t, nil, defaultOS())
	conn, connectedAt := b.connect(t)
	b.world.RunUntil(connectedAt + 5*sim.Second)
	pipe := b.panu.OpenPipe(conn)
	for i := 0; i < 50; i++ {
		_, out, dur := pipe.SendRun(core.PTDH5, 1691, 1)
		if out != PacketDelivered {
			t.Fatalf("packet %d: %v", i, out)
		}
		if dur <= 0 {
			t.Fatal("transfer should take time")
		}
	}
	if pipe.Sent() != 50 {
		t.Errorf("Sent = %d", pipe.Sent())
	}
}

func TestPipeLatentDefectStrikesEarly(t *testing.T) {
	b := newBed(t, func(panu, nap *Config) {
		panu.LatentDefectProb = 1
		panu.LatentMeanPackets = 5
	}, defaultOS())
	conn, connectedAt := b.connect(t)
	b.world.RunUntil(connectedAt + 5*sim.Second)
	pipe := b.panu.OpenPipe(conn)
	if pipe.LatentAt() < 0 {
		t.Fatal("defect lottery should have fired with prob 1")
	}
	var lostAt = -1
	for i := 0; i < 10000; i++ {
		_, out, _ := pipe.SendRun(core.PTDH1, 27, 1)
		if out == PacketLost {
			lostAt = i
			break
		}
	}
	if lostAt < 0 {
		t.Fatal("latent defect never struck")
	}
}

func TestPipeL2CAPDataFault(t *testing.T) {
	b := newBed(t, func(panu, nap *Config) {
		panu.L2CAP.DataFaultPerPacket = 1
	}, defaultOS())
	conn, connectedAt := b.connect(t)
	b.world.RunUntil(connectedAt + 5*sim.Second)
	pipe := b.panu.OpenPipe(conn)
	_, out, _ := pipe.SendRun(core.PTDH1, 27, 1)
	if out != PacketLost {
		t.Fatalf("outcome = %v, want lost", out)
	}
}

func TestResetStackClearsState(t *testing.T) {
	b := newBed(t, nil, defaultOS())
	conn, _ := b.connect(t)
	_ = conn
	if b.panu.HCI.OpenHandles() == 0 {
		t.Fatal("precondition: a handle should be open")
	}
	b.panu.ResetStack()
	if b.panu.HCI.OpenHandles() != 0 || b.panu.L2CAP.OpenChannels() != 0 || b.panu.BNEP.Occupied() {
		t.Error("reset left state behind")
	}
}

func TestReboot(t *testing.T) {
	b := newBed(t, nil, defaultOS())
	dur := b.panu.Reboot()
	if dur != defaultOS().BootTime {
		t.Errorf("boot time = %v", dur)
	}
	if b.panu.Reboots() != 1 {
		t.Errorf("Reboots = %d", b.panu.Reboots())
	}
}

func TestDefaultHostConfigValidates(t *testing.T) {
	cfg := DefaultHostConfig(5)
	if err := cfg.HCI.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.L2CAP.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.BNEP.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.PAN.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.SDP.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.Hotplug.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.ARQ.Validate(); err != nil {
		t.Error(err)
	}
	if err := cfg.Radio.Validate(); err != nil {
		t.Error(err)
	}
}

func TestHotplugConfigValidate(t *testing.T) {
	bad := DefaultHotplugConfig()
	bad.DefectDelayFactor = 0.5
	if bad.Validate() == nil {
		t.Error("factor < 1 should fail")
	}
	bad = DefaultHotplugConfig()
	bad.ConfigDelay = 0
	if bad.Validate() == nil {
		t.Error("zero delay should fail")
	}
}

func TestBindNilConn(t *testing.T) {
	b := newBed(t, nil, defaultOS())
	if err := b.panu.Bind(nil, 0); err == nil {
		t.Error("bind(nil) should fail")
	}
}

var _ = bnep.MTU // keep the import explicit about the MTU dependency

var _ Sink = hci.Sink(nil)
