package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/logging"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/stack"
)

// pair wires one PANU and the NAP into a world with logs.
type pair struct {
	world   *sim.World
	nap     *stack.Host
	panu    *stack.Host
	testLog *logging.TestLog
	sysLog  *logging.SystemLog
	connID  uint64
}

func newPair(t testing.TB, seed uint64, panuName string, mutate func(*stack.Config)) *pair {
	t.Helper()
	p := &pair{world: sim.NewWorld(seed)}
	p.testLog = logging.NewTestLog()
	p.sysLog = logging.NewSystemLog(panuName)
	clock := func() sim.Time { return p.world.Now() }

	napSpec, err := device.ByName("Giallo")
	if err != nil {
		t.Fatal(err)
	}
	napCfg := napSpec.HostConfig()
	if mutate != nil {
		mutate(&napCfg) // the NAP's daemons must be quiet too
	}
	napSys := logging.NewSystemLog("Giallo")
	p.nap = stack.NewHost(napCfg, p.world, "Giallo", napSpec.OS, 0,
		false, true, napSpec.BuildTransport(p.world), &p.connID,
		napSys.Sink("test", clock, nil))

	spec, err := device.ByName(panuName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.HostConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	p.panu = stack.NewHost(cfg, p.world, panuName, spec.OS, spec.DistanceM,
		spec.IsPDA, false, spec.BuildTransport(p.world), &p.connID,
		p.sysLog.Sink("test", clock, nil))
	return p
}

func quiet(cfg *stack.Config) {
	cfg.SDP.RefuseProb, cfg.SDP.TimeoutProb, cfg.SDP.MissProb = 0, 0, 0
	cfg.HCI.TimeoutProbIdle, cfg.HCI.TimeoutProbBusy, cfg.HCI.InquiryFailProb = 0, 0, 0
	cfg.L2CAP.UnexpectedFrameProb, cfg.L2CAP.DataFaultPerPacket = 0, 0
	cfg.BNEP.ModuleMissingProb, cfg.BNEP.OccupiedProb, cfg.BNEP.AddFailedProb = 0, 0, 0
	cfg.PAN.StaleCacheFailProb, cfg.PAN.FreshFailProb = 0, 0
	cfg.PAN.SwitchReqExtraTimeout = 0
	cfg.PAN.SwitchCmdL2CAPProb, cfg.PAN.SwitchCmdBNEPProb, cfg.PAN.SwitchCmdHCIProb = 0, 0, 0
	cfg.Hotplug.DefectExtendProb, cfg.Hotplug.DefectLossProb = 0, 0
	cfg.Radio.BERGood, cfg.Radio.BERBad = 0, 0
	cfg.Radio.InterferencePerHour = 0
	cfg.LatentDefectProb = 0
}

func TestConfigValidation(t *testing.T) {
	good := DefaultRandom("random", recovery.ScenarioSIRAs)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultRealistic("realistic", recovery.ScenarioSIRAs).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := DefaultFixed("fixed", recovery.ScenarioSIRAs).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Testbed = ""
	if bad.Validate() == nil {
		t.Error("empty testbed accepted")
	}
	bad = DefaultRealistic("x", recovery.ScenarioSIRAs)
	bad.MaxCycles = 21
	if bad.Validate() == nil {
		t.Error("21 cycles accepted")
	}
}

func TestMaskedScenarioEnablesMasking(t *testing.T) {
	cfg := DefaultRandom("random", recovery.ScenarioSIRAsMasking)
	if !cfg.Masking.SDPBeforeConnect {
		t.Error("masked scenario should enable masking strategies")
	}
	cfg = DefaultRandom("random", recovery.ScenarioSIRAs)
	if cfg.Masking.SDPBeforeConnect {
		t.Error("unmasked scenario should not mask")
	}
}

func TestClientRunsCleanCycles(t *testing.T) {
	p := newPair(t, 101, "Verde", quiet)
	client := NewClient(DefaultRandom("random", recovery.ScenarioSIRAs),
		p.world, p.panu, p.nap, p.testLog)
	client.Start()
	p.world.RunUntil(2 * sim.Hour)

	c := client.Counters()
	if c.Cycles < 30 {
		t.Fatalf("only %d cycles in 2 virtual hours", c.Cycles)
	}
	if c.Connections < 20 {
		t.Errorf("only %d connections", c.Connections)
	}
	if c.BytesMoved == 0 {
		t.Error("no data moved")
	}
	if got := c.TotalFailures(); got != 0 {
		t.Errorf("%d failures on a fault-free testbed: %v", got, c.Failures)
	}
	if p.testLog.Len() != 0 {
		t.Errorf("%d reports on a fault-free testbed", p.testLog.Len())
	}
}

func TestClientReportsPacketLoss(t *testing.T) {
	p := newPair(t, 102, "Verde", func(cfg *stack.Config) {
		quiet(cfg)
		cfg.LatentDefectProb = 1
		cfg.LatentMeanPackets = 3
	})
	client := NewClient(DefaultRandom("random", recovery.ScenarioSIRAs),
		p.world, p.panu, p.nap, p.testLog)
	client.Start()
	p.world.RunUntil(2 * sim.Hour)

	c := client.Counters()
	if c.Failures[core.UFPacketLoss] == 0 {
		t.Fatal("latent defects should surface as packet losses")
	}
	var sawRecovered bool
	for _, r := range p.testLog.Snapshot() {
		if r.Failure != core.UFPacketLoss {
			continue
		}
		if r.Node != "Verde" || r.Workload != core.WLRandom || r.Testbed != "random" {
			t.Fatalf("bad report context: %+v", r)
		}
		if !r.Packet.Valid() {
			t.Error("report missing packet type")
		}
		if r.Recovered {
			sawRecovered = true
			if !r.Recovery.Valid() {
				t.Error("recovered report without an action")
			}
			if r.TTR <= 0 {
				t.Error("recovered report without TTR")
			}
		}
	}
	if !sawRecovered {
		t.Error("no packet loss was recovered by the cascade")
	}
}

func TestClientClassifiesConnectStages(t *testing.T) {
	p := newPair(t, 103, "Miseno", func(cfg *stack.Config) {
		quiet(cfg)
		cfg.PAN.FreshFailProb = 1 // every PAN setup fails
	})
	client := NewClient(DefaultRandom("random", recovery.ScenarioSIRAs),
		p.world, p.panu, p.nap, p.testLog)
	client.Start()
	p.world.RunUntil(time30m())

	c := client.Counters()
	if c.Failures[core.UFPANConnectFailed] == 0 {
		t.Fatalf("no PAN connect failures: %v", c.Failures)
	}
	if c.Failures[core.UFConnectFailed] != 0 {
		t.Errorf("PAN-stage failures misclassified as L2CAP stage: %v", c.Failures)
	}
}

func time30m() sim.Time { return 30 * sim.Minute }

func TestSwitchRoleMaskingRetries(t *testing.T) {
	// Without masking the switch-command failures surface; with masking the
	// transient clears on retry (the fault is drawn per call, so a retry
	// usually succeeds at p=0.5).
	run := func(scenario recovery.Scenario) (failures, masked int) {
		p := newPair(t, 104, "Ipaq", func(cfg *stack.Config) {
			quiet(cfg)
			cfg.PAN.SwitchCmdBNEPProb = 0.5
		})
		cfg := DefaultRandom("random", scenario)
		client := NewClient(cfg, p.world, p.panu, p.nap, p.testLog)
		client.Start()
		p.world.RunUntil(3 * sim.Hour)
		c := client.Counters()
		return c.Failures[core.UFSwitchRoleCommandFailed], c.Masked[core.UFSwitchRoleCommandFailed]
	}
	unmaskedFailures, _ := run(recovery.ScenarioSIRAs)
	maskedFailures, maskedCount := run(recovery.ScenarioSIRAsMasking)
	if unmaskedFailures == 0 {
		t.Fatal("no switch failures without masking")
	}
	if maskedCount == 0 {
		t.Fatal("masking never fired")
	}
	if maskedFailures >= unmaskedFailures {
		t.Errorf("masking did not reduce failures: %d -> %d", unmaskedFailures, maskedFailures)
	}
}

func TestBindMaskingEliminatesBindFailures(t *testing.T) {
	mutate := func(cfg *stack.Config) {
		quiet(cfg)
		cfg.Hotplug.DefectExtendProb = 1 // every hotplug event late
	}
	p := newPair(t, 105, "Azzurro", mutate)
	client := NewClient(DefaultRandom("random", recovery.ScenarioSIRAs),
		p.world, p.panu, p.nap, p.testLog)
	client.Start()
	p.world.RunUntil(sim.Hour)
	if client.Counters().Failures[core.UFBindFailed] == 0 {
		t.Fatal("late hotplug should produce bind failures unmasked")
	}

	p2 := newPair(t, 105, "Azzurro", mutate)
	client2 := NewClient(DefaultRandom("random", recovery.ScenarioSIRAsMasking),
		p2.world, p2.panu, p2.nap, p2.testLog)
	client2.Start()
	p2.world.RunUntil(sim.Hour)
	c2 := client2.Counters()
	if c2.Failures[core.UFBindFailed] != 0 {
		t.Errorf("masking left %d bind failures", c2.Failures[core.UFBindFailed])
	}
	if c2.Masked[core.UFBindFailed] == 0 {
		t.Error("masked bind events not counted")
	}
}

func TestSDPMaskingAvoidsStaleCache(t *testing.T) {
	mutate := func(cfg *stack.Config) {
		quiet(cfg)
		cfg.PAN.StaleCacheFailProb = 1 // cached connects always fail
	}
	p := newPair(t, 106, "Verde", mutate)
	client := NewClient(DefaultRandom("random", recovery.ScenarioSIRAs),
		p.world, p.panu, p.nap, p.testLog)
	client.Start()
	p.world.RunUntil(sim.Hour)
	if client.Counters().Failures[core.UFPANConnectFailed] == 0 {
		t.Fatal("stale cache should produce PAN connect failures unmasked")
	}

	p2 := newPair(t, 106, "Verde", mutate)
	client2 := NewClient(DefaultRandom("random", recovery.ScenarioSIRAsMasking),
		p2.world, p2.panu, p2.nap, p2.testLog)
	client2.Start()
	p2.world.RunUntil(sim.Hour)
	c2 := client2.Counters()
	if c2.Failures[core.UFPANConnectFailed] != 0 {
		t.Errorf("masking left %d PAN connect failures", c2.Failures[core.UFPANConnectFailed])
	}
	if c2.Masked[core.UFPANConnectFailed] == 0 {
		t.Error("masked stale-cache events not counted")
	}
}

func TestRealisticWorkloadReusesConnections(t *testing.T) {
	p := newPair(t, 107, "Verde", quiet)
	cfg := DefaultRealistic("realistic", recovery.ScenarioSIRAs)
	client := NewClient(cfg, p.world, p.panu, p.nap, p.testLog)
	client.Start()
	p.world.RunUntil(4 * sim.Hour)

	c := client.Counters()
	if c.Cycles <= c.Connections {
		t.Errorf("cycles (%d) should exceed connections (%d) when reusing", c.Cycles, c.Connections)
	}
	if c.IdleBeforeClean.N() == 0 {
		t.Error("no idle-time observations for reused connections")
	}
}

func TestFixedWorkloadMovesFixedVolume(t *testing.T) {
	p := newPair(t, 108, "Verde", quiet)
	cfg := DefaultFixed("fixed", recovery.ScenarioSIRAs)
	client := NewClient(cfg, p.world, p.panu, p.nap, p.testLog)
	client.Start()
	// One fixed cycle moves 10000*1691 B over DH5: run long enough for a
	// couple of cycles.
	p.world.RunUntil(2 * sim.Hour)
	c := client.Counters()
	if c.Cycles == 0 {
		t.Fatal("no cycles")
	}
	wantPerCycle := int64(10000) * 1691
	if c.BytesMoved < wantPerCycle {
		t.Errorf("moved %d bytes, want at least one full fixed cycle (%d)", c.BytesMoved, wantPerCycle)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, int, int64) {
		p := newPair(t, 109, "Verde", nil) // default faults on
		client := NewClient(DefaultRandom("random", recovery.ScenarioSIRAs),
			p.world, p.panu, p.nap, p.testLog)
		client.Start()
		p.world.RunUntil(2 * sim.Hour)
		c := client.Counters()
		return c.Cycles, c.TotalFailures(), c.BytesMoved
	}
	c1, f1, b1 := run()
	c2, f2, b2 := run()
	if c1 != c2 || f1 != f2 || b1 != b2 {
		t.Errorf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", c1, f1, b1, c2, f2, b2)
	}
}

func TestDefaultFaultsProduceFailures(t *testing.T) {
	p := newPair(t, 110, "Verde", nil)
	client := NewClient(DefaultRandom("random", recovery.ScenarioSIRAs),
		p.world, p.panu, p.nap, p.testLog)
	client.Start()
	p.world.RunUntil(12 * sim.Hour)
	c := client.Counters()
	if c.TotalFailures() == 0 {
		t.Error("12 virtual hours with calibrated faults should fail at least once")
	}
	if p.sysLog.Len() == 0 {
		t.Error("no system-level entries logged")
	}
}
