package sdp

import (
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/l2cap"
	"repro/internal/sim"
	"repro/internal/transport"
)

type fixture struct {
	client   *Client
	server   *Server
	host     *hci.Host
	now      sim.Time
	panuLogs []core.ErrorCode
	napLogs  []core.ErrorCode
}

func newFixture(t *testing.T, mutate func(*ServerConfig)) *fixture {
	t.Helper()
	f := &fixture{}
	hcfg := hci.DefaultConfig()
	hcfg.TimeoutProbIdle, hcfg.TimeoutProbBusy, hcfg.InquiryFailProb = 0, 0, 0
	panuSink := func(code core.ErrorCode, op string) { f.panuLogs = append(f.panuLogs, code) }
	napSink := func(code core.ErrorCode, op string) { f.napLogs = append(f.napLogs, code) }
	f.host = hci.NewHost(hcfg, "Miseno",
		transport.NewH4(transport.H4Config{BaudRate: 115200}),
		func() sim.Time { return f.now },
		rand.New(rand.NewPCG(11, 12)), panuSink)
	lcfg := l2cap.DefaultConfig()
	lcfg.UnexpectedFrameProb, lcfg.DataFaultPerPacket = 0, 0
	mux := l2cap.NewMux(lcfg, "Miseno", f.host, rand.New(rand.NewPCG(13, 14)), panuSink)

	scfg := DefaultServerConfig()
	scfg.RefuseProb, scfg.TimeoutProb, scfg.MissProb = 0, 0, 0
	if mutate != nil {
		mutate(&scfg)
	}
	f.server = NewServer(scfg, rand.New(rand.NewPCG(15, 16)), napSink)
	f.client = NewClient("Miseno", mux, panuSink)
	return f
}

func (f *fixture) handle(t *testing.T) hci.Handle {
	t.Helper()
	hd, res := f.host.CreateConnection("Giallo")
	if res.Err != nil {
		t.Fatalf("hci create: %v", res.Err)
	}
	f.now += 10 * sim.Second
	return hd
}

func TestDefaultServerConfigValid(t *testing.T) {
	if err := DefaultServerConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultServerConfig()
	bad.MissProb = -1
	if bad.Validate() == nil {
		t.Error("negative probability should fail")
	}
	bad = DefaultServerConfig()
	bad.ResponseTime = 0
	if bad.Validate() == nil {
		t.Error("zero response time should fail")
	}
}

func TestRegisterAndSearch(t *testing.T) {
	f := newFixture(t, nil)
	f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP, Name: "Network Access Point"})
	f.server.Register(Record{Class: UUIDGN, PSM: l2cap.PSMBNEP, Name: "Group Network"})
	if f.server.Records() != 2 {
		t.Fatalf("Records = %d", f.server.Records())
	}

	hits, res := f.client.Search(f.handle(t), f.server, UUIDNAP)
	if res.Err != nil {
		t.Fatalf("search: %v", res.Err)
	}
	if len(hits) != 1 || hits[0].Class != UUIDNAP || hits[0].PSM != l2cap.PSMBNEP {
		t.Fatalf("hits = %+v", hits)
	}
	if res.Dur <= 0 {
		t.Error("search should take time")
	}
}

func TestSearchReturnsRegistrationOrder(t *testing.T) {
	f := newFixture(t, nil)
	first := f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP, Name: "first"})
	f.server.Register(Record{Class: UUIDGN, PSM: l2cap.PSMBNEP, Name: "group"})
	second := f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP, Name: "second"})
	third := f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP, Name: "third"})
	f.server.Unregister(second)
	for range 3 {
		hits, res := f.client.Search(f.handle(t), f.server, UUIDNAP)
		if res.Err != nil {
			t.Fatalf("search: %v", res.Err)
		}
		if len(hits) != 2 || hits[0].Handle != first || hits[1].Handle != third {
			t.Fatalf("hits = %+v, want records %#x then %#x", hits, first, third)
		}
	}
}

func TestSearchNoService(t *testing.T) {
	f := newFixture(t, nil)
	hits, res := f.client.Search(f.handle(t), f.server, UUIDNAP)
	if res.Err != nil {
		t.Fatalf("search: %v", res.Err)
	}
	if len(hits) != 0 {
		t.Error("found a service that is not registered")
	}
}

func TestUnregister(t *testing.T) {
	f := newFixture(t, nil)
	h := f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP})
	f.server.Unregister(h)
	if f.server.Records() != 0 {
		t.Error("record survived unregister")
	}
}

func TestSearchRefused(t *testing.T) {
	f := newFixture(t, func(c *ServerConfig) { c.RefuseProb = 1 })
	f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP})
	_, res := f.client.Search(f.handle(t), f.server, UUIDNAP)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeSDPConnectionRefused {
		t.Fatalf("want refused, got %v", res.Err)
	}
	// The daemon fault logs on the NAP's system log (error propagation).
	if len(f.napLogs) != 1 || f.napLogs[0] != core.CodeSDPConnectionRefused {
		t.Errorf("NAP logs = %v", f.napLogs)
	}
}

func TestSearchTimeout(t *testing.T) {
	f := newFixture(t, func(c *ServerConfig) { c.TimeoutProb = 1 })
	f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP})
	_, res := f.client.Search(f.handle(t), f.server, UUIDNAP)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeSDPTimeout {
		t.Fatalf("want timeout, got %v", res.Err)
	}
	if res.Dur < 5*sim.Second {
		t.Errorf("timeout search should wait out the response timer, dur=%v", res.Dur)
	}
}

func TestSearchMissesPresentService(t *testing.T) {
	f := newFixture(t, func(c *ServerConfig) { c.MissProb = 1 })
	f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP})
	hits, res := f.client.Search(f.handle(t), f.server, UUIDNAP)
	if res.Err != nil {
		t.Fatalf("a miss is not a procedure failure: %v", res.Err)
	}
	if len(hits) != 0 {
		t.Fatal("miss fault returned hits")
	}
	// The daemon knows it failed to advertise: service-missing on NAP log.
	if len(f.napLogs) != 1 || f.napLogs[0] != core.CodeSDPServiceMissing {
		t.Errorf("NAP logs = %v", f.napLogs)
	}
}

func TestSearchPropagatesL2CAPFailure(t *testing.T) {
	f := newFixture(t, nil)
	f.server.Register(Record{Class: UUIDNAP, PSM: l2cap.PSMBNEP})
	// Search over a dead HCI handle: the L2CAP connect fails first.
	_, res := f.client.Search(hci.Handle(777), f.server, UUIDNAP)
	var se *core.SimError
	if !errors.As(res.Err, &se) || se.Code != core.CodeHCIInvalidHandle {
		t.Fatalf("want HCI failure through SDP, got %v", res.Err)
	}
}

func TestMissFaultOnlyFiresWhenRegistered(t *testing.T) {
	f := newFixture(t, func(c *ServerConfig) { c.MissProb = 1 })
	// Nothing registered: no miss fault, just a clean empty answer.
	hits, res := f.client.Search(f.handle(t), f.server, UUIDNAP)
	if res.Err != nil || len(hits) != 0 {
		t.Fatalf("hits=%v err=%v", hits, res.Err)
	}
	if len(f.napLogs) != 0 {
		t.Errorf("miss fault fired with no records: NAP logs = %v", f.napLogs)
	}
}
