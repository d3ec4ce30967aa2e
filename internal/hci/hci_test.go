package hci

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transport"
)

type fixture struct {
	host *Host
	now  sim.Time
	logs []core.ErrorCode
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	cfg := DefaultConfig()
	// Deterministic by default: no spontaneous faults unless the test asks.
	cfg.TimeoutProbIdle, cfg.TimeoutProbBusy, cfg.InquiryFailProb = 0, 0, 0
	if mutate != nil {
		mutate(&cfg)
	}
	f := &fixture{}
	tr := transport.NewH4(transport.H4Config{BaudRate: 115200})
	f.host = NewHost(cfg, "Verde", tr,
		func() sim.Time { return f.now },
		rand.New(rand.NewPCG(1, 2)),
		func(code core.ErrorCode, op string) { f.logs = append(f.logs, code) })
	return f
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.CommandTimeout = 0
	if bad.Validate() == nil {
		t.Error("zero timeout should fail")
	}
	bad = DefaultConfig()
	bad.TimeoutProbBusy = 1.5
	if bad.Validate() == nil {
		t.Error("probability 1.5 should fail")
	}
}

func TestConnectionLifecycle(t *testing.T) {
	f := newFixture(t, nil)
	hd, res := f.host.CreateConnection("Giallo")
	if res.Err != nil {
		t.Fatalf("create: %v", res.Err)
	}
	if hd == InvalidHandle || !f.host.ValidHandle(hd) {
		t.Fatal("no valid handle allocated")
	}
	if f.host.OpenHandles() != 1 {
		t.Errorf("OpenHandles = %d", f.host.OpenHandles())
	}
	if res := f.host.Disconnect(hd); res.Err != nil {
		t.Fatalf("disconnect: %v", res.Err)
	}
	if f.host.ValidHandle(hd) {
		t.Error("handle survived disconnect")
	}
}

func TestDisconnectUnknownHandle(t *testing.T) {
	f := newFixture(t, nil)
	res := f.host.Disconnect(42)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeHCIInvalidHandle {
		t.Fatalf("want invalid-handle error, got %v", res.Err)
	}
	if len(f.logs) != 1 || f.logs[0] != core.CodeHCIInvalidHandle {
		t.Errorf("sink saw %v, want one invalid-handle entry", f.logs)
	}
}

func TestBusyWindowRaisesTimeoutProbability(t *testing.T) {
	f := newFixture(t, func(c *Config) {
		c.TimeoutProbBusy = 1 // certain timeout while busy
	})
	// Idle: command sails through.
	if _, res := f.host.CreateConnection("Giallo"); res.Err != nil {
		t.Fatalf("idle create failed: %v", res.Err)
	}
	// The create left the controller busy for ConnSetupTime; a command
	// issued now must hit the busy timeout.
	if !f.host.Busy() {
		t.Fatal("controller should be busy after create")
	}
	_, res := f.host.CreateConnection("Miseno")
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeHCICommandTimeout {
		t.Fatalf("want command timeout on busy device, got %v", res.Err)
	}
	if res.Dur < DefaultConfig().CommandTimeout {
		t.Errorf("timeout should cost the full command timeout, got %v", res.Dur)
	}
	// Advance past the busy window: commands succeed again.
	f.now += 10 * sim.Second
	if _, res := f.host.CreateConnection("Azzurro"); res.Err != nil {
		t.Fatalf("post-busy create failed: %v", res.Err)
	}
}

func TestSetBusyExtendsNotShrinks(t *testing.T) {
	f := newFixture(t, nil)
	f.host.SetBusy(10 * sim.Second)
	f.host.SetBusy(5 * sim.Second)
	f.now = 7 * sim.Second
	if !f.host.Busy() {
		t.Error("shorter SetBusy should not shrink the window")
	}
}

func TestSwitchRole(t *testing.T) {
	f := newFixture(t, nil)
	hd, _ := f.host.CreateConnection("Giallo")
	if res := f.host.SwitchRole(hd); res.Err != nil {
		t.Fatalf("switch role: %v", res.Err)
	}
	res := f.host.SwitchRole(999)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeHCIInvalidHandle {
		t.Fatalf("switch on bad handle: %v", res.Err)
	}
}

func TestInquiry(t *testing.T) {
	f := newFixture(t, nil)
	res := f.host.Inquiry()
	if res.Err != nil {
		t.Fatalf("inquiry: %v", res.Err)
	}
	if res.Dur < DefaultConfig().InquiryDuration {
		t.Errorf("inquiry duration %v below configured %v", res.Dur, DefaultConfig().InquiryDuration)
	}
	if !f.host.Busy() {
		t.Error("inquiry should leave the controller busy")
	}
}

func TestInquiryAbnormalTermination(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.InquiryFailProb = 1 })
	res := f.host.Inquiry()
	if res.Err == nil {
		t.Fatal("want abnormal termination")
	}
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeUnknown {
		t.Fatalf("inquiry failures carry no system error code, got %v", res.Err)
	}
	if len(f.logs) != 0 {
		t.Errorf("inquiry failure should not log a system entry (no relationship in Table 2), got %v", f.logs)
	}
}

func TestCommandOnHandle(t *testing.T) {
	f := newFixture(t, nil)
	hd, _ := f.host.CreateConnection("Giallo")
	if res := f.host.CommandOnHandle("l2cap.config", hd, 12); res.Err != nil {
		t.Fatalf("command on live handle: %v", res.Err)
	}
	res := f.host.CommandOnHandle("l2cap.config", hd+1, 12)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeHCIInvalidHandle {
		t.Fatalf("command on stale handle: %v", res.Err)
	}
}

func TestReset(t *testing.T) {
	f := newFixture(t, nil)
	hd, _ := f.host.CreateConnection("Giallo")
	f.host.SetBusy(sim.Hour)
	f.host.Reset()
	if f.host.ValidHandle(hd) {
		t.Error("reset should drop handles")
	}
	if f.host.Busy() {
		t.Error("reset should clear the busy window")
	}
}

func TestTransportFaultSurfacesThroughHCI(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimeoutProbIdle, cfg.TimeoutProbBusy, cfg.InquiryFailProb = 0, 0, 0
	bcspCfg := transport.DefaultBCSPConfig()
	bcspCfg.ReorderProb, bcspCfg.RecoverProb = 1, 0
	var logs []core.ErrorCode
	var now sim.Time
	host := NewHost(cfg, "Ipaq",
		transport.NewBCSPSim(bcspCfg, "Ipaq", rand.New(rand.NewPCG(3, 4))),
		func() sim.Time { return now },
		rand.New(rand.NewPCG(5, 6)),
		func(code core.ErrorCode, op string) { logs = append(logs, code) })
	_, res := host.CreateConnection("Giallo")
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeBCSPOutOfOrder {
		t.Fatalf("want BCSP out-of-order through HCI, got %v", res.Err)
	}
	if len(logs) != 1 || logs[0] != core.CodeBCSPOutOfOrder {
		t.Errorf("sink saw %v", logs)
	}
}

func TestStatsCountTimeouts(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.TimeoutProbIdle = 1 })
	f.host.Inquiry()
	if len(f.logs) != 1 || f.logs[0] != core.CodeHCICommandTimeout {
		t.Errorf("sink saw %v, want one command-timeout entry", f.logs)
	}
}

func TestHandleWrapSkipsZeroAndLiveHandles(t *testing.T) {
	f := newFixture(t, nil)
	// Five handles stay live throughout, as a Disconnect that timed out
	// leaves them.
	leaked := map[Handle]bool{}
	for range 5 {
		hd, _ := f.host.CreateConnection("Giallo")
		leaked[hd] = true
	}
	wraps := 0
	prev := Handle(5)
	for i := 0; i < 2*(1<<16); i++ {
		hd, res := f.host.CreateConnection("Giallo")
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if hd == InvalidHandle || leaked[hd] {
			t.Fatalf("allocation %d issued handle %d (invalid or still live)", i, hd)
		}
		if hd < prev {
			wraps++
		}
		prev = hd
		if res := f.host.Disconnect(hd); res.Err != nil {
			t.Fatal(res.Err)
		}
		f.now += 10 * sim.Second
	}
	if wraps < 2 {
		t.Errorf("handle counter wrapped %d times, want at least 2", wraps)
	}
	if got := f.host.OpenHandles(); got != len(leaked) {
		t.Errorf("OpenHandles = %d, want %d", got, len(leaked))
	}
	for hd := range leaked {
		if !f.host.ValidHandle(hd) {
			t.Errorf("leaked handle %d no longer live", hd)
		}
	}
}

func TestResetDoesNotAllocate(t *testing.T) {
	f := newFixture(t, nil)
	allocs := testing.AllocsPerRun(100, func() {
		for range 8 {
			f.host.CreateConnection("Giallo")
		}
		f.host.Reset()
	})
	if allocs != 0 {
		t.Errorf("create + Reset allocates %v per run, want 0", allocs)
	}
}

// FuzzHandleTable holds the host's live-handle set to a reference
// map[Handle]bool under create, accept, disconnect, failed-disconnect,
// leak-burst, counter-jump and reset sequences. The reference issues
// handles the way the host must: counting up, wrapping past 0xFFFF, and
// skipping InvalidHandle and every still-live handle.
func FuzzHandleTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{5, 200, 6, 255, 0, 0, 3, 9, 2, 1, 1, 0})
	f.Add([]byte{5, 255, 5, 255, 6, 254, 0, 1, 3, 0, 2, 4, 0, 6, 255, 5, 40, 1, 7, 0})
	f.Fuzz(fuzzBody)
}

func fuzzBody(t *testing.T, ops []byte) {
	{
		fx := newFixture(t, func(c *Config) { c.TimeoutProbBusy = 1 })
		h := fx.host
		ref := map[Handle]bool{}
		var next Handle
		issue := func() Handle {
			for {
				next++
				if next != InvalidHandle && !ref[next] {
					ref[next] = true
					return next
				}
			}
		}
		// pick names a live handle (by rank in the reference) or, for a
		// zero selector, a handle that may not be live.
		pick := func(sel byte) Handle {
			if sel == 0 || len(ref) == 0 {
				return Handle(sel) * 257
			}
			live := make([]Handle, 0, len(ref))
			for hd := range ref {
				live = append(live, hd)
			}
			slices.Sort(live)
			return live[int(sel)%len(live)]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			fx.now += 10 * sim.Second // leave any busy window
			op, arg := ops[i]%8, ops[i+1]
			switch op {
			case 0, 1:
				var hd Handle
				var res Result
				if op == 0 {
					hd, res = h.CreateConnection("Giallo")
				} else {
					hd, res = h.AcceptConnection("Verde")
				}
				if want := issue(); res.Err != nil || hd != want {
					t.Fatalf("op %d: issued %d (%v), want %d", i, hd, res.Err, want)
				}
			case 2, 3:
				hd := pick(arg)
				res := h.Disconnect(hd)
				if res.Err == nil != ref[hd] {
					t.Fatalf("op %d: Disconnect(%d) = %v, live %v", i, hd, res.Err, ref[hd])
				}
				delete(ref, hd)
			case 4:
				// A Disconnect that times out leaks its handle.
				hd := pick(arg)
				h.SetBusy(fx.now + sim.Second)
				if res := h.Disconnect(hd); res.Err == nil {
					t.Fatalf("op %d: Disconnect(%d) on a busy controller succeeded", i, hd)
				}
			case 5:
				// Leak a burst of handles, keeping the table well short of
				// exhausting the handle space.
				for range min(int(arg), 2048-len(ref)) {
					fx.now += 10 * sim.Second
					hd, _ := h.CreateConnection("Giallo")
					if want := issue(); hd != want {
						t.Fatalf("op %d: burst issued %d, want %d", i, hd, want)
					}
				}
			case 6:
				// Jump the counter as if arg*256 short-lived connections
				// had come and gone, to reach the wrap quickly.
				h.nextHandle += Handle(arg) << 8
				next += Handle(arg) << 8
			case 7:
				h.Reset()
				clear(ref)
			}
			if got := h.OpenHandles(); got != len(ref) {
				t.Fatalf("op %d: OpenHandles = %d, reference %d", i, got, len(ref))
			}
			for hd := range ref {
				if !h.ValidHandle(hd) {
					t.Fatalf("op %d: handle %d live in the reference, not in the host", i, hd)
				}
			}
			if h.ValidHandle(InvalidHandle) {
				t.Fatalf("op %d: InvalidHandle is live", i)
			}
		}
	}
}
