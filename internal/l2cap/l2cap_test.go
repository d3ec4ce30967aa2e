package l2cap

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/sim"
	"repro/internal/transport"
)

type fixture struct {
	mux  *Mux
	host *hci.Host
	now  sim.Time
	logs []core.ErrorCode
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	f := &fixture{}
	hcfg := hci.DefaultConfig()
	hcfg.TimeoutProbIdle, hcfg.TimeoutProbBusy, hcfg.InquiryFailProb = 0, 0, 0
	sink := func(code core.ErrorCode, op string) { f.logs = append(f.logs, code) }
	f.host = hci.NewHost(hcfg, "Verde",
		transport.NewH4(transport.H4Config{BaudRate: 115200}),
		func() sim.Time { return f.now },
		rand.New(rand.NewPCG(7, 8)), sink)
	cfg := DefaultConfig()
	cfg.UnexpectedFrameProb, cfg.DataFaultPerPacket = 0, 0
	if mutate != nil {
		mutate(&cfg)
	}
	f.mux = NewMux(cfg, "Verde", f.host, rand.New(rand.NewPCG(9, 10)), sink)
	return f
}

func (f *fixture) connect(t *testing.T) (*Channel, hci.Handle) {
	t.Helper()
	hd, res := f.host.CreateConnection("Giallo")
	if res.Err != nil {
		t.Fatalf("hci create: %v", res.Err)
	}
	f.now += 10 * sim.Second // leave the busy window
	ch, cres := f.mux.Connect(hd, PSMBNEP)
	if cres.Err != nil {
		t.Fatalf("l2cap connect: %v", cres.Err)
	}
	return &ch, hd
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.MTU = 10
	if bad.Validate() == nil {
		t.Error("tiny MTU should fail")
	}
}

func TestConnectLifecycle(t *testing.T) {
	f := newFixture(t, nil)
	ch, _ := f.connect(t)
	if ch.State != StateOpen {
		t.Fatalf("state = %v, want open", ch.State)
	}
	if ch.PSM != PSMBNEP {
		t.Errorf("psm = %#x", ch.PSM)
	}
	if ch.LocalCID < 0x0040 {
		t.Errorf("dynamic CID %#x below 0x0040", ch.LocalCID)
	}
	if f.mux.OpenChannels() != 1 {
		t.Errorf("OpenChannels = %d", f.mux.OpenChannels())
	}
	if res := f.mux.Disconnect(ch); res.Err != nil {
		t.Fatalf("disconnect: %v", res.Err)
	}
	if ch.State != StateClosed || f.mux.OpenChannels() != 0 {
		t.Error("channel not closed")
	}
}

func TestConnectPropagatesHCIFailure(t *testing.T) {
	f := newFixture(t, nil)
	// Stale handle: HCI invalid-handle must surface through Connect.
	ch, res := f.mux.Connect(hci.Handle(999), PSMSDP)
	if ch.State != StateClosed {
		t.Fatal("channel opened despite failure")
	}
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeHCIInvalidHandle {
		t.Fatalf("want HCI invalid handle, got %v", res.Err)
	}
}

func TestConnectUnexpectedFrameFault(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.UnexpectedFrameProb = 1 })
	hd, _ := f.host.CreateConnection("Giallo")
	f.now += 10 * sim.Second
	_, res := f.mux.Connect(hd, PSMBNEP)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeL2CAPUnexpectedFrame {
		t.Fatalf("want unexpected-frame error, got %v", res.Err)
	}
	logged := 0
	for _, c := range f.logs {
		if c == core.CodeL2CAPUnexpectedFrame {
			logged++
		}
	}
	if logged != 1 {
		t.Errorf("violation logged %d times to sink, want 1", logged)
	}
}

func TestDisconnectNilOrClosedChannel(t *testing.T) {
	f := newFixture(t, nil)
	if res := f.mux.Disconnect(nil); res.Err == nil {
		t.Error("disconnect(nil) should fail")
	}
	ch, _ := f.connect(t)
	f.mux.Disconnect(ch)
	if res := f.mux.Disconnect(ch); res.Err == nil {
		t.Error("double disconnect should fail")
	}
}

func TestReset(t *testing.T) {
	f := newFixture(t, nil)
	f.connect(t)
	f.mux.Reset()
	if f.mux.OpenChannels() != 0 {
		t.Error("reset should drop channels")
	}
}

func TestResetForgetsOpenChannels(t *testing.T) {
	f := newFixture(t, nil)
	stale, hd := f.connect(t)
	f.mux.Reset()
	ch, res := f.mux.Connect(hd, PSMSDP)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Closing a channel that a Reset already dropped must not discount the
	// channel opened after it.
	f.mux.Disconnect(stale)
	if got := f.mux.OpenChannels(); got != 1 {
		t.Errorf("OpenChannels = %d after closing a pre-reset channel, want 1", got)
	}
	f.mux.Disconnect(&ch)
	if got := f.mux.OpenChannels(); got != 0 {
		t.Errorf("OpenChannels = %d, want 0", got)
	}
}

func TestCIDWrapSkipsReservedRange(t *testing.T) {
	f := newFixture(t, nil)
	_, hd := f.connect(t)
	// One channel stays open throughout; drive the counter twice around.
	seen := 0
	for i := 0; i < 2*(1<<16); i++ {
		ch, res := f.mux.Connect(hd, PSMSDP)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if ch.LocalCID < FirstDynamicCID {
			t.Fatalf("allocation %d: CID %#04x in the reserved range", i, ch.LocalCID)
		}
		if ch.LocalCID == FirstDynamicCID {
			seen++
		}
		f.mux.Disconnect(&ch)
	}
	if seen < 2 {
		t.Errorf("counter restarted at %#04x %d times, want at least 2", FirstDynamicCID, seen)
	}
	if got := f.mux.OpenChannels(); got != 1 {
		t.Errorf("OpenChannels = %d, want 1", got)
	}
}

func TestDataFault(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.DataFaultPerPacket = 1 })
	if !f.mux.DataFault() {
		t.Error("certain data fault did not fire")
	}
	f2 := newFixture(t, nil)
	if f2.mux.DataFault() {
		t.Error("zero-probability data fault fired")
	}
}

func TestSegmentSDUProperties(t *testing.T) {
	prop := func(sduLen uint16, ptIdx uint8) bool {
		if sduLen == 0 {
			return true
		}
		pt := core.PacketTypes()[int(ptIdx)%6]
		plan := PlanSDU(int(sduLen), pt)
		if plan.Count < 1 {
			return false
		}
		total := 0
		for i := 0; i < plan.Count; i++ {
			n := plan.Len(i)
			if n <= 0 || n > pt.Payload() {
				return false
			}
			total += n
		}
		return total == int(sduLen)+HeaderLen
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSegmentSDUExactFit(t *testing.T) {
	// 1691-byte BNEP MTU + 4 header = 1695 bytes over DH5 (339) = 5 packets.
	if n := PlanSDU(1691, core.PTDH5).Count; n != 5 {
		t.Errorf("BNEP MTU over DH5 = %d fragments, want 5", n)
	}
	// Same SDU over DM1 (17B): ceil(1695/17) = 100 packets.
	if n := PlanSDU(1691, core.PTDM1).Count; n != 100 {
		t.Errorf("BNEP MTU over DM1 = %d fragments, want 100", n)
	}
}

func TestChannelStateStrings(t *testing.T) {
	for _, s := range []ChannelState{StateClosed, StateWaitConnect, StateConfig, StateOpen} {
		if s.String() == "" {
			t.Errorf("empty string for state %d", int(s))
		}
	}
}
