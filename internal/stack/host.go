package stack

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/baseband"
	"repro/internal/bnep"
	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/l2cap"
	"repro/internal/pan"
	"repro/internal/radio"
	"repro/internal/sdp"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Config gathers the per-layer configurations of one host.
type Config struct {
	HCI     hci.Config
	L2CAP   l2cap.Config
	BNEP    bnep.Config
	PAN     pan.Config
	SDP     sdp.ServerConfig
	Hotplug HotplugConfig
	ARQ     baseband.ARQConfig
	Radio   radio.Config

	// TCWindow is the interval after PAN connect during which the L2CAP
	// handle is not yet valid for socket operations (the paper's T_C).
	TCWindow sim.Time

	// LatentDefectProb is the per-connection probability of a setup-time
	// latent defect (Figure 3b infant mortality); LatentMeanPackets is the
	// mean packet index at which it strikes (geometric).
	LatentDefectProb  float64
	LatentMeanPackets float64
}

// DefaultHostConfig returns a calibrated per-host configuration for a PANU
// at the given antenna distance.
func DefaultHostConfig(distanceM float64) Config {
	return Config{
		HCI:               hci.DefaultConfig(),
		L2CAP:             l2cap.DefaultConfig(),
		BNEP:              bnep.DefaultConfig(),
		PAN:               pan.DefaultConfig(),
		SDP:               sdp.DefaultServerConfig(),
		Hotplug:           DefaultHotplugConfig(),
		ARQ:               baseband.DefaultARQConfig(),
		Radio:             radio.DefaultConfig(distanceM),
		TCWindow:          60 * sim.Millisecond,
		LatentDefectProb:  0.005,
		LatentMeanPackets: 120,
	}
}

// Host is one complete Bluetooth node of a testbed.
type Host struct {
	Node string
	OS   OSInfo
	// DistanceM is the antenna distance from the NAP (0 for the NAP).
	DistanceM float64
	// IsPDA marks the BCSP-transport handhelds (iPAQ, Zaurus).
	IsPDA bool

	World *sim.World

	Transport transport.Transport
	HCI       *hci.Host
	L2CAP     *l2cap.Mux
	BNEP      *bnep.Service
	PANU      *pan.PANU
	SDPClient *sdp.Client
	SDPServer *sdp.Server // non-nil on the NAP
	NAP       *pan.NAP    // non-nil on the NAP
	Hotplug   *Hotplug

	Link *radio.Link           // PANU→NAP RF link (nil on the NAP)
	Tx   *baseband.Transmitter // data plane over Link (nil on the NAP)

	cfg  Config
	rng  *rand.Rand
	sink hci.Sink

	// l2capSrc and arqSrc are the generators behind the L2CAP mux's and
	// the transmitter's streams, which the transfer kernel draws from
	// directly; cleanPackets counts the packets it resolved.
	l2capSrc, arqSrc *sim.PCG
	cleanPackets     int64

	// Reboot bookkeeping for the SIRAs.
	reboots int
}

// Sink is re-exported for constructors: it receives (code, op) pairs and is
// expected to stamp them with the host's identity and current time.
type Sink = hci.Sink

// NewHost assembles a full host. sink receives every system-level error the
// stack raises; nextConnID is the testbed-wide connection counter; napRef
// wires PANU hosts to their NAP (nil while constructing the NAP itself).
func NewHost(cfg Config, world *sim.World, node string, os OSInfo, distanceM float64,
	isPDA, isNAP bool, tr transport.Transport, nextConnID *uint64, sink Sink) *Host {
	if world == nil || tr == nil {
		panic("stack: nil world or transport")
	}
	h := &Host{
		Node:      node,
		OS:        os,
		DistanceM: distanceM,
		IsPDA:     isPDA,
		World:     world,
		Transport: tr,
		cfg:       cfg,
		rng:       world.RNG("stack." + node),
		sink:      sink,
	}
	clock := func() sim.Time { return world.Now() }
	h.HCI = hci.NewHost(cfg.HCI, node, tr, clock, world.RNG("hci."+node), sink)
	h.L2CAP = l2cap.NewMux(cfg.L2CAP, node, h.HCI, world.RNG("l2cap."+node), sink)
	h.BNEP = bnep.NewService(cfg.BNEP, node, clock, world.RNG("bnep."+node), sink)
	h.Hotplug = NewHotplug(cfg.Hotplug, world, os.HALDefect, world.RNG("hotplug."+node), sink)
	h.SDPClient = sdp.NewClient(node, h.L2CAP, sink)
	if isNAP {
		h.SDPServer = sdp.NewServer(cfg.SDP, world.RNG("sdp."+node), sink)
		h.NAP = pan.NewNAP(node, h.HCI, h.SDPServer)
	} else {
		h.PANU = pan.NewPANU(cfg.PAN, node, h.HCI, h.L2CAP, h.BNEP,
			nextConnID, world.RNG("pan."+node), sink)
		h.Link = radio.NewLink(cfg.Radio, world.RNG("radio."+node))
		h.Tx = baseband.NewTransmitter(cfg.ARQ, h.Link, world.RNG("arq."+node))
		h.l2capSrc, h.arqSrc = world.Source("l2cap."+node), world.Source("arq."+node)
	}
	return h
}

// Config returns the host's configuration.
func (h *Host) Config() Config { return h.cfg }

// Reboots reports how many reboots the host has performed.
//
// Test seam: recovery's TestCascadeSideEffects and testbed's
// TestHardwareReplacementReboots.
func (h *Host) Reboots() int { return h.reboots }

// ResetStack clears BT stack state (the "BT stack reset" SIRA): HCI handles,
// L2CAP channels and the BNEP interface all drop.
func (h *Host) ResetStack() {
	h.HCI.Reset()
	h.L2CAP.Reset()
	h.BNEP.DestroyChannel()
}

// Reboot models a full system reboot: stack state clears and the boot time
// elapses (the caller schedules around the returned duration).
func (h *Host) Reboot() sim.Time {
	h.ResetStack()
	h.reboots++
	return h.OS.BootTime
}

// Pipe is the data plane of one PAN connection: it applies the connection's
// latent-defect state, L2CAP data-phase faults, segmentation, and the ARQ.
// OpenPipe returns it by value, for the caller to keep beside its Conn.
type Pipe struct {
	Conn *pan.Conn
	host *Host

	// latentAt is the packet index at which the setup-time latent defect
	// strikes (-1: no defect). Figure 3b's infant-mortality mechanism.
	latentAt int
	sent     int
}

// PacketOutcome classifies one workload packet transfer.
type PacketOutcome int

// Transfer outcomes, mirroring baseband outcomes plus the latent defect.
const (
	PacketDelivered PacketOutcome = iota
	PacketLost
	PacketCorrupted
)

// String names the outcome.
func (o PacketOutcome) String() string {
	switch o {
	case PacketDelivered:
		return "delivered"
	case PacketLost:
		return "lost"
	case PacketCorrupted:
		return "corrupted"
	default:
		return fmt.Sprintf("PacketOutcome(%d)", int(o))
	}
}

// OpenPipe wraps a fresh PAN connection with its data-plane state, sampling
// the latent-defect lottery for this connection.
func (h *Host) OpenPipe(conn *pan.Conn) Pipe {
	if h.Tx == nil {
		panic("stack: OpenPipe on a non-PANU host")
	}
	p := Pipe{Conn: conn, host: h, latentAt: -1}
	if h.cfg.LatentDefectProb > 0 && h.rng.Float64() < h.cfg.LatentDefectProb {
		// Geometric packet index with the configured mean: young
		// connections carry their setup defects into the first packets.
		mean := h.cfg.LatentMeanPackets
		if mean < 1 {
			mean = 1
		}
		p.latentAt = int(h.rng.ExpFloat64() * mean)
	}
	return p
}

// Sent reports how many packets this pipe has carried.
func (p *Pipe) Sent() int { return p.sent }

// CleanPackets reports how many packets the transfer kernel resolved on
// this host's pipes, without the per-packet path.
//
// Test seam: testbed's TestTransferKernelEngages.
func (h *Host) CleanPackets() int64 { return h.cleanPackets }

// SendRun carries up to n workload packets of size bytes, all of packet
// type pt, back to back at the current instant. It stops after the first
// packet that is not delivered and reports how many packets it carried
// (that one included), that packet's outcome (PacketDelivered when all n
// were), and the summed transfer time.
//
// Packets inside one channel state that neither fault in L2CAP nor lose a
// fragment's first attempt all take the same path: one DataFault draw, one
// batched-window draw and the same slot count. The transfer kernel resolves
// a run of them as two threshold scans over the l2cap and arq generators
// and stops at the first draw that would fail; that packet, with both
// generators as they stood before it, goes to the per-packet path, which
// draws the same values again. The kernel thus makes exactly the draws the
// per-packet path would, in the same order, and leaves every stream, the
// slot clock and the outcome where n per-packet sends would.
func (p *Pipe) SendRun(pt core.PacketType, size, n int) (sent int, outcome PacketOutcome, elapsed sim.Time) {
	size = max(1, min(size, bnep.MTU))
	// Keep the shared piconet slot clock in step with virtual time, so
	// fading states correlate with the campaign clock.
	h := p.host
	if nowSlot := int64(h.World.Now() / sim.Slot); nowSlot > h.Tx.Slot() {
		h.Tx.AdvanceTo(nowSlot)
	}
	plan := l2cap.PlanSDU(size, pt)
	for sent < n {
		clean := n - sent
		if p.latentAt >= 0 {
			clean = min(clean, p.latentAt-p.sent)
		}
		fit, per, pFail := h.Tx.CleanRun(pt, plan.Count, plan.Budget, plan.LastLen, clean)
		if k := cleanScan(h.l2capSrc, h.arqSrc, fit, h.cfg.L2CAP.DataFaultPerPacket, pFail); k > 0 {
			h.Tx.AdvanceTo(h.Tx.Slot() + int64(k)*per)
			h.cleanPackets += int64(k)
			p.sent += k
			sent += k
			elapsed += sim.Time(int64(k)*per) * sim.Slot
			if sent == n {
				break
			}
		}
		o, d := p.sendOne(pt, plan)
		sent++
		elapsed += d
		if o != PacketDelivered {
			return sent, o, elapsed
		}
	}
	return sent, PacketDelivered, elapsed
}

// cleanScan draws, for up to fit packets, the L2CAP fault draw from l2 and
// (when pFail > 0) the window draw from arq, and returns how many packets
// passed both. Each packet's draws are committed only once both pass, so
// the generators end just before the first failing packet's draws.
func cleanScan(l2, arq *sim.PCG, fit int, faultP, pFail float64) int {
	a, b := *l2, *arq
	i := 0
	for ; i < fit; i++ {
		na, nb := a, b
		if na.Float64() < faultP || pFail > 0 && nb.Float64() < pFail {
			break
		}
		a, b = na, nb
	}
	*l2, *arq = a, b
	return i
}

// sendOne carries one packet of the given segmentation plan through the
// per-packet path: the latent defect, the L2CAP data-phase fault and the
// batched ARQ.
func (p *Pipe) sendOne(pt core.PacketType, plan l2cap.SegPlan) (PacketOutcome, sim.Time) {
	p.sent++
	// Latent setup defect: strikes once at its packet index, breaking the
	// link state (manifests as a loss; the connection usually needs a
	// reset afterwards — the workload handles that).
	if p.latentAt >= 0 && p.sent > p.latentAt {
		p.latentAt = -1
		return PacketLost, 30 * sim.Second // the workload's loss timeout
	}
	// L2CAP data-phase framing fault.
	if p.host.L2CAP.DataFault() {
		return PacketLost, 30 * sim.Second
	}
	res := p.host.Tx.SendSDU(pt, plan.Count, plan.Budget, plan.LastLen)
	switch res.Outcome {
	case baseband.Dropped:
		return PacketLost, res.Elapsed + 30*sim.Second
	case baseband.Corrupted:
		return PacketCorrupted, res.Elapsed
	}
	return PacketDelivered, res.Elapsed
}

// Bind attempts to bind an IP socket to the connection's BNEP interface at
// the current instant. The failure legs mirror the paper's analysis:
//
//   - before T_C has elapsed the L2CAP handle is invalid → HCI
//     "command for unknown connection handle";
//   - after T_C but before the hotplug configuration completes → the
//     interface is missing or unconfigured (BNEP module evidence; if the
//     hotplug event was lost the HAL timeout will land in the log too).
func (h *Host) Bind(conn *pan.Conn, connectedAt sim.Time) error {
	now := h.World.Now()
	if conn == nil || conn.Iface == nil {
		return core.NewSimError(core.CodeBNEPModuleMissing, "socket.bind", h.Node)
	}
	if now < connectedAt+h.cfg.TCWindow {
		if h.sink != nil {
			h.sink(core.CodeHCIInvalidHandle, "socket.bind")
		}
		return core.NewSimError(core.CodeHCIInvalidHandle, "socket.bind", h.Node)
	}
	if !conn.Iface.Configured {
		if h.sink != nil {
			h.sink(core.CodeBNEPModuleMissing, "socket.bind")
		}
		return core.NewSimError(core.CodeBNEPModuleMissing, "socket.bind", h.Node)
	}
	return nil
}

// WaitForBind is the masking strategy for "Bind failed": it reports the
// extra time the instrumented API must wait until both T_C and T_H have
// elapsed, kicking the hotplug daemon if the event was lost. The caller
// advances virtual time by the returned duration and then binds.
func (h *Host) WaitForBind(conn *pan.Conn, connectedAt sim.Time) sim.Time {
	now := h.World.Now()
	var wait sim.Time
	if tc := connectedAt + h.cfg.TCWindow; now < tc {
		wait = tc - now
	}
	if conn != nil && conn.Iface != nil && !conn.Iface.Configured {
		h.Hotplug.Kick()
		// Conservative bound: twice the defect-path configuration delay,
		// which dominates the jittered worst case (1.25x).
		d := sim.Time(2 * float64(h.cfg.Hotplug.ConfigDelay) * h.cfg.Hotplug.DefectDelayFactor)
		if d > wait {
			wait = d
		}
	}
	return wait
}
