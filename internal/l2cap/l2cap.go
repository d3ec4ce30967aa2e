// Package l2cap implements the Logical Link Control and Adaptation Protocol
// layer of the simulated stack: connection-oriented channels identified by
// (CID, PSM), the four-way connect/configure signalling ridden over HCI, and
// SDU segmentation/reassembly onto baseband packets.
//
// Its Table 1 failure mode is "unexpected start or continuation frames
// received": a reassembly-state violation that the paper links to switch-
// role command failures (0.9 % local, 4.4 % on the NAP) and connection
// failures. The reassembler here is a real state machine; the fault injector
// corrupts segment framing bits and the state machine does the classifying.
package l2cap

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/sim"
)

// Well-known protocol/service multiplexer values.
const (
	PSMSDP  uint16 = 0x0001
	PSMBNEP uint16 = 0x000F
)

// HeaderLen is the basic-mode L2CAP header: 2 bytes length + 2 bytes CID.
const HeaderLen = 4

// FirstDynamicCID is the lowest dynamically allocated channel identifier;
// the CIDs below it are reserved for fixed channels.
const FirstDynamicCID uint16 = 0x0040

// Config parameterises the L2CAP layer.
type Config struct {
	// MTU is the negotiated maximum SDU payload.
	MTU int

	// SignalSize is the typical signalling PDU size in bytes.
	SignalSize int

	// UnexpectedFrameProb is the per-signalling-exchange probability that a
	// mangled frame violates the reassembly state machine.
	UnexpectedFrameProb float64

	// DataFaultPerPacket is the per-data-packet probability of the same
	// framing violation during transfer (much rarer).
	DataFaultPerPacket float64
}

// DefaultConfig returns calibrated L2CAP parameters.
func DefaultConfig() Config {
	return Config{
		MTU:                 1691,
		SignalSize:          12,
		UnexpectedFrameProb: 2.5e-4,
		DataFaultPerPacket:  1e-7,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.MTU < 48:
		return fmt.Errorf("l2cap: MTU %d below minimum 48", c.MTU)
	case c.SignalSize <= 0:
		return fmt.Errorf("l2cap: non-positive signal size")
	case c.UnexpectedFrameProb < 0 || c.UnexpectedFrameProb > 1 ||
		c.DataFaultPerPacket < 0 || c.DataFaultPerPacket > 1:
		return fmt.Errorf("l2cap: probability out of range")
	default:
		return nil
	}
}

// ChannelState tracks the signalling lifecycle.
type ChannelState int

// Channel states.
const (
	StateClosed ChannelState = iota
	StateWaitConnect
	StateConfig
	StateOpen
)

// String names the state.
func (s ChannelState) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateWaitConnect:
		return "wait-connect"
	case StateConfig:
		return "config"
	case StateOpen:
		return "open"
	default:
		return fmt.Sprintf("ChannelState(%d)", int(s))
	}
}

// Channel is one connection-oriented L2CAP channel. Callers hold it by
// value; the Mux keeps no per-channel state beyond a count.
type Channel struct {
	LocalCID  uint16
	RemoteCID uint16
	PSM       uint16
	Handle    hci.Handle
	State     ChannelState

	// epoch is the Mux reset epoch the channel was opened in: a Reset
	// already dropped a channel of an earlier epoch from the count.
	epoch uint32
}

// Result reports an L2CAP operation.
type Result struct {
	Dur sim.Time
	Err error
}

// Mux is the L2CAP layer of one node.
type Mux struct {
	cfg  Config
	node string
	hci  *hci.Host
	rng  *rand.Rand
	sink hci.Sink

	nextCID uint16
	open    int    // channels opened in this epoch and not yet closed
	epoch   uint32 // bumped by Reset
}

// NewMux builds the L2CAP layer over an HCI host.
func NewMux(cfg Config, node string, h *hci.Host, rng *rand.Rand, sink hci.Sink) *Mux {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if h == nil {
		panic("l2cap: nil HCI host")
	}
	return &Mux{
		cfg: cfg, node: node, hci: h, rng: rng, sink: sink,
		nextCID: FirstDynamicCID,
	}
}

// OpenChannels reports the number of non-closed channels.
//
// Test seam: stack's TestResetStackClearsState and pan's
// TestConnectResetsConnInPlace.
func (m *Mux) OpenChannels() int { return m.open }

// raiseUnexpected logs and returns the unexpected-frame error.
func (m *Mux) raiseUnexpected(op string, dur sim.Time) Result {
	if m.sink != nil {
		m.sink(core.CodeL2CAPUnexpectedFrame, op)
	}
	return Result{Dur: dur, Err: core.NewSimError(core.CodeL2CAPUnexpectedFrame, op, m.node)}
}

// Connect runs the connect + configure signalling toward psm over an HCI
// handle and returns the open channel. HCI-level failures (busy timeouts,
// stale handles) propagate, which is the paper's dominant cause of
// "Connect failed"; a failed connect returns a closed zero Channel.
func (m *Mux) Connect(hd hci.Handle, psm uint16) (Channel, Result) {
	var total sim.Time
	// Connect request/response + two config exchanges: four signalling PDUs.
	for _, op := range []string{
		"l2cap.connect_req", "l2cap.connect_rsp",
		"l2cap.config_req", "l2cap.config_rsp",
	} {
		res := m.hci.CommandOnHandle(op, hd, m.cfg.SignalSize)
		total += res.Dur
		if res.Err != nil {
			return Channel{}, Result{Dur: total, Err: res.Err}
		}
		// A mangled signalling frame can violate the peer's state machine.
		if m.rng.Float64() < m.cfg.UnexpectedFrameProb {
			return Channel{}, m.raiseUnexpected(op, total)
		}
	}
	ch := Channel{
		LocalCID:  m.nextCID,
		RemoteCID: m.nextCID + 0x1000, // peer's dynamic CID (simulated)
		PSM:       psm,
		Handle:    hd,
		State:     StateOpen,
		epoch:     m.epoch,
	}
	// The CID counter wraps past 0xFFFF back to the dynamic range, never
	// into the reserved fixed-channel CIDs.
	if m.nextCID++; m.nextCID == 0 {
		m.nextCID = FirstDynamicCID
	}
	m.open++
	return ch, Result{Dur: total}
}

// Disconnect tears a channel down with the two-way disconnect handshake.
func (m *Mux) Disconnect(ch *Channel) Result {
	if ch == nil || ch.State != StateOpen {
		return m.raiseUnexpected("l2cap.disconnect_req", 0)
	}
	var total sim.Time
	for _, op := range []string{"l2cap.disconnect_req", "l2cap.disconnect_rsp"} {
		res := m.hci.CommandOnHandle(op, ch.Handle, m.cfg.SignalSize)
		total += res.Dur
		if res.Err != nil {
			// Half-open teardown still closes locally.
			break
		}
	}
	ch.State = StateClosed
	if ch.epoch == m.epoch {
		m.open--
	}
	return Result{Dur: total}
}

// Reset drops all channel state (part of the "BT stack reset" SIRA).
// Channels opened before it no longer count as open, even while a caller
// still holds them in StateOpen.
func (m *Mux) Reset() {
	m.open = 0
	m.epoch++
}

// DataFault samples whether a data-phase framing violation hits this packet
// and logs it if so. The workload consults it once per transferred packet.
func (m *Mux) DataFault() bool {
	if m.rng.Float64() < m.cfg.DataFaultPerPacket {
		m.raiseUnexpected("l2cap.data", 0)
		return true
	}
	return false
}
