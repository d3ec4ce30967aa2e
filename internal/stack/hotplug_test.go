package stack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/pan"
	"repro/internal/sim"
)

// halBed is a bed whose PANU carries the HAL defect, with two baseband
// links up so two PAN connections can follow each other at one instant.
func halBed(t *testing.T) (*bed, [2]hci.Handle) {
	t.Helper()
	osInfo := defaultOS()
	osInfo.HALDefect = true
	b := newBed(t, nil, osInfo)
	var hds [2]hci.Handle
	for i := range hds {
		hd, res := b.panu.HCI.CreateConnection("Giallo")
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		hds[i] = hd
	}
	b.world.RunUntil(b.world.Now() + 10*sim.Second)
	return b, hds
}

// open runs a PAN connect into conn and hands the interface to hotplug.
func (b *bed) open(t *testing.T, hd hci.Handle, conn *pan.Conn) {
	t.Helper()
	if res := b.panu.PANU.Connect(hd, b.nap.NAP, true, conn); res.Err != nil {
		t.Fatal(res.Err)
	}
	b.panu.Hotplug.OnCreated(conn.Iface)
}

func TestHotplugStaleConfigureLeavesNextInterface(t *testing.T) {
	b, hds := halBed(t)
	var conn pan.Conn
	// Connection A: a healthy event, configure scheduled ~80 ms out. It is
	// torn down before the event fires.
	b.open(t, hds[0], &conn)
	genA := conn.Iface.Gen
	b.panu.PANU.Disconnect(&conn, b.nap.NAP)
	// Connection B reuses the Conn and the interface; its event is lost.
	b.panu.Hotplug.cfg.DefectLossProb = 1
	b.open(t, hds[1], &conn)
	if conn.Iface.Gen == genA {
		t.Fatal("the reused interface kept its generation")
	}
	b.world.RunUntil(b.world.Now() + sim.Second)
	if conn.Iface.Configured {
		t.Fatal("connection A's configure event configured connection B's interface")
	}
	// Kicking B's lost event still configures B.
	b.world.RunUntil(b.world.Now() + b.panu.WaitForBind(&conn, 0))
	if !conn.Iface.Configured {
		t.Fatal("kick did not configure connection B's interface")
	}
}

func TestHotplugStaleHALTimeoutLeavesNextInterface(t *testing.T) {
	t.Run("next lost", func(t *testing.T) {
		b, hds := halBed(t)
		b.panu.Hotplug.cfg.DefectLossProb = 1
		var conn pan.Conn
		start := b.world.Now()
		b.open(t, hds[0], &conn) // A's HAL timeout at start+10 s
		b.panu.PANU.Disconnect(&conn, b.nap.NAP)
		b.world.RunUntil(start + 2*sim.Second)
		b.open(t, hds[1], &conn) // B's HAL timeout at start+12 s
		b.world.RunUntil(start + 11*sim.Second)
		if got := b.count(core.CodeHotplugTimeout); got != 0 {
			t.Fatalf("connection A's HAL timeout logged against connection B's lost event (%d timeouts)", got)
		}
		b.world.RunUntil(start + 13*sim.Second)
		if got := b.count(core.CodeHotplugTimeout); got != 1 {
			t.Fatalf("%d HAL timeouts, want connection B's one", got)
		}
		if conn.Iface.Configured {
			t.Fatal("a HAL timeout configured the interface")
		}
	})
	t.Run("next configured", func(t *testing.T) {
		b, hds := halBed(t)
		b.panu.Hotplug.cfg.DefectLossProb = 1
		var conn pan.Conn
		start := b.world.Now()
		b.open(t, hds[0], &conn)
		b.panu.PANU.Disconnect(&conn, b.nap.NAP)
		b.panu.Hotplug.cfg.DefectLossProb = 0
		b.open(t, hds[1], &conn)
		b.world.RunUntil(start + sim.Second)
		if !conn.Iface.Configured {
			t.Fatal("connection B's interface not configured")
		}
		// A's event stays lost after its teardown, so its timeout logs,
		// whatever state B's interface is in.
		b.world.RunUntil(start + 11*sim.Second)
		if got := b.count(core.CodeHotplugTimeout); got != 1 {
			t.Fatalf("%d HAL timeouts, want connection A's one", got)
		}
		if !conn.Iface.Configured {
			t.Fatal("connection A's HAL timeout touched connection B's interface")
		}
	})
}

func TestHotplugEventsReused(t *testing.T) {
	b, hds := halBed(t)
	var conn pan.Conn
	b.open(t, hds[0], &conn)
	b.world.RunUntil(b.world.Now() + sim.Second)
	// Recreate the interface over the still-open channel, as each new
	// connection does, and let its configure event fire.
	allocs := testing.AllocsPerRun(20, func() {
		b.panu.BNEP.DestroyChannel()
		iface, _ := b.panu.BNEP.CreateChannel(&conn.Channel)
		b.panu.Hotplug.OnCreated(iface)
		b.world.RunUntil(b.world.Now() + sim.Second)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per configure event, want 0", allocs)
	}
}
