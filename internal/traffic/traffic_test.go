package traffic

import (
	"math/rand/v2"
	"testing"

	"repro/internal/core"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(51, 52)) }

func TestSampleAllApps(t *testing.T) {
	r := testRNG()
	for _, app := range core.Apps() {
		for i := 0; i < 200; i++ {
			p := Sample(app, r, 1)
			if p.App != app {
				t.Fatalf("%v: wrong app %v", app, p.App)
			}
			if p.Bytes <= 0 {
				t.Fatalf("%v: non-positive volume", app)
			}
			if p.SendPDU <= 0 || p.RecvPDU <= 0 {
				t.Fatalf("%v: bad PDUs %d/%d", app, p.SendPDU, p.RecvPDU)
			}
			if p.SendFrac < 0 || p.SendFrac > 1 {
				t.Fatalf("%v: SendFrac %v", app, p.SendFrac)
			}
			send, recv := p.Packets()
			if send < 0 || recv < 0 || send+recv == 0 {
				t.Fatalf("%v: packets %d/%d", app, send, recv)
			}
		}
	}
}

func TestVolumeOrderingMatchesFigure3c(t *testing.T) {
	r := testRNG()
	const n = 30000
	mean := map[core.AppKind]float64{}
	for _, app := range core.Apps() {
		mean[app] = MeanBytes(app, r, n)
	}
	// P2P must move the most bytes per cycle; streaming next; the
	// interactive applications (Web, Mail, FTP) less than both.
	if !(mean[core.AppP2P] > mean[core.AppStreaming]) {
		t.Errorf("P2P (%v) should exceed streaming (%v)", mean[core.AppP2P], mean[core.AppStreaming])
	}
	for _, app := range []core.AppKind{core.AppWeb, core.AppMail} {
		if mean[app] >= mean[core.AppStreaming] {
			t.Errorf("%v mean %v should be below streaming %v", app, mean[app], mean[core.AppStreaming])
		}
	}
	if mean[core.AppMail] >= mean[core.AppFTP] {
		t.Errorf("Mail (%v) should be lighter than FTP (%v)", mean[core.AppMail], mean[core.AppFTP])
	}
}

func TestScaleShrinksVolume(t *testing.T) {
	full := MeanBytes(core.AppWeb, rand.New(rand.NewPCG(1, 1)), 5000)
	quarter := 0.0
	r := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 5000; i++ {
		quarter += float64(Sample(core.AppWeb, r, 0.25).Bytes)
	}
	quarter /= 5000
	ratio := quarter / full
	if ratio < 0.2 || ratio > 0.35 {
		t.Errorf("scale 0.25 gave ratio %v", ratio)
	}
}

func TestSamplePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for zero scale")
		}
	}()
	Sample(core.AppWeb, testRNG(), 0)
}

func TestSamplePanicsOnUnknownApp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for AppNone")
		}
	}()
	Sample(core.AppNone, testRNG(), 1)
}

func TestRandomAppCoversMix(t *testing.T) {
	r := testRNG()
	counts := map[core.AppKind]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[RandomApp(r)]++
	}
	if len(counts) != 5 {
		t.Fatalf("only %d apps drawn", len(counts))
	}
	// Web is the most popular application in the mix.
	for app, c := range counts {
		if app != core.AppWeb && c > counts[core.AppWeb] {
			t.Errorf("%v drawn more often than Web (%d > %d)", app, c, counts[core.AppWeb])
		}
	}
}

func TestPacketsRounding(t *testing.T) {
	p := Plan{App: core.AppWeb, Bytes: 1461, SendPDU: PDUAck, RecvPDU: PDUData, SendFrac: 0}
	send, recv := p.Packets()
	if send != 0 || recv != 2 {
		t.Errorf("packets = %d/%d, want 0/2 (ceil)", send, recv)
	}
	// Degenerate plan still implies at least one packet.
	p = Plan{Bytes: 0, SendPDU: 1, RecvPDU: 1}
	send, recv = p.Packets()
	if send+recv == 0 {
		t.Error("zero packets for degenerate plan")
	}
}
