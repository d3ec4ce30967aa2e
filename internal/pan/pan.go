// Package pan implements the Bluetooth PAN profile on top of L2CAP and BNEP:
// the PANU (client) connection procedure toward a NAP (Network Access
// Point), the NAP's slot management (a piconet master handles at most seven
// active slaves), and the master/slave role switch performed right after
// connection establishment so the NAP remains piconet master.
//
// The user-failure taxonomy splits across this package's stages:
//
//   - "Connect failed"          — the L2CAP connection to the NAP fails;
//   - "PAN connect failed"      — L2CAP is up but the BNEP/PAN setup fails.
//     96.5 % of these strike when the workload skipped the SDP search and
//     connected from a stale cached record (the paper's headline masking
//     insight: always search before connecting);
//   - "Sw role request failed"  — the switch-role request never reaches the
//     master (HCI command transmission timeout, 91.1 %);
//   - "Sw role command failed"  — the request is accepted but the command
//     completes abnormally (BCSP reordering on PDAs, unexpected L2CAP
//     frames, stale HCI handles, occupied BNEP devices).
package pan

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/bnep"
	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/l2cap"
	"repro/internal/sdp"
	"repro/internal/sim"
)

// MaxSlaves is the piconet's active-slave bound.
const MaxSlaves = 7

// Stage identifies where in the PAN procedure an operation failed, so the
// workload can classify the user-level failure.
type Stage int

// Stages of the PAN connection procedure.
const (
	StageNone     Stage = iota
	StageL2CAP          // establishing the L2CAP connection
	StagePAN            // BNEP/PAN setup over the established L2CAP link
	StageSwitch         // master/slave role switch
	StageTransfer       // data transfer
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageNone:
		return "none"
	case StageL2CAP:
		return "l2cap"
	case StagePAN:
		return "pan"
	case StageSwitch:
		return "switch"
	case StageTransfer:
		return "transfer"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Result reports a PAN operation with its failing stage.
type Result struct {
	Dur   sim.Time
	Stage Stage
	Err   error
}

// Config parameterises the PAN profile's fault behaviour.
type Config struct {
	// StaleCacheFailProb is the probability that a PAN connection attempted
	// from a cached (unsearched) NAP record fails against the live service
	// registry. The masking strategy — always perform the SDP search first —
	// eliminates exactly this term.
	StaleCacheFailProb float64

	// FreshFailProb is the residual PAN-setup failure probability when the
	// record is fresh.
	FreshFailProb float64

	// SwitchReqExtraTimeout adds to the HCI command-timeout probability for
	// the switch-role request leg (its transmission crosses the piconet
	// during the fragile post-connect window).
	SwitchReqExtraTimeout float64

	// SwitchCmdL2CAPProb / SwitchCmdBNEPProb / SwitchCmdHCIProb are the
	// per-switch probabilities that the command leg is disrupted by an
	// unexpected L2CAP frame, an occupied BNEP device, or a stale HCI
	// handle respectively. (BCSP disruption needs no knob: it arises from
	// the transport itself on the PDA nodes.)
	SwitchCmdL2CAPProb float64
	SwitchCmdBNEPProb  float64
	SwitchCmdHCIProb   float64

	// RoleSwitchTime is the nominal duration of a successful switch.
	RoleSwitchTime sim.Time
}

// DefaultConfig returns calibrated PAN parameters.
func DefaultConfig() Config {
	return Config{
		StaleCacheFailProb:    1.3e-3,
		FreshFailProb:         4.7e-5,
		SwitchReqExtraTimeout: 2e-6,
		SwitchCmdL2CAPProb:    1e-6,
		SwitchCmdBNEPProb:     6e-6,
		SwitchCmdHCIProb:      4e-6,
		RoleSwitchTime:        20 * sim.Slot,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, p := range []float64{
		c.StaleCacheFailProb, c.FreshFailProb, c.SwitchReqExtraTimeout,
		c.SwitchCmdL2CAPProb, c.SwitchCmdBNEPProb, c.SwitchCmdHCIProb,
	} {
		if p < 0 || p > 1 {
			return fmt.Errorf("pan: probability %v out of range", p)
		}
	}
	if c.RoleSwitchTime <= 0 {
		return fmt.Errorf("pan: non-positive role switch time")
	}
	return nil
}

// Conn is an established PAN connection from a PANU to a NAP. The caller
// owns it and hands it to PANU.Connect, which resets it in place, so a
// client that holds one connection at a time reuses one Conn value.
type Conn struct {
	ID        uint64 // global connection identifier (for log correlation)
	Handle    hci.Handle
	NAPHandle hci.Handle
	Channel   l2cap.Channel   // the BNEP channel
	Iface     *bnep.Interface // the PANU's bnep0 over Channel
	// MasterIsNAP reports whether the role switch has completed, leaving
	// the NAP as piconet master.
	MasterIsNAP bool
	Open        bool
}

// NAP is the network-access-point side: it owns the service record, accepts
// incoming connections, and bounds active slaves.
type NAP struct {
	Node string

	HCI *hci.Host
	SDP *sdp.Server

	// slots[:active] hold the connection IDs of the admitted PANUs, in no
	// particular order.
	slots  [MaxSlaves]uint64
	active int
}

// NewNAP builds the NAP role for a node and registers its service record.
func NewNAP(node string, h *hci.Host, s *sdp.Server) *NAP {
	if h == nil || s == nil {
		panic("pan: NAP needs HCI and SDP")
	}
	n := &NAP{Node: node, HCI: h, SDP: s}
	s.Register(sdp.Record{Class: sdp.UUIDNAP, PSM: l2cap.PSMBNEP, Name: "Network Access Point"})
	return n
}

// ActiveSlaves reports the number of connected PANUs.
//
// Test seam: testbed's TestNAPSlaveBoundInvariant.
func (n *NAP) ActiveSlaves() int { return n.active }

// accept runs the NAP-side admission: slot check plus the HCI accept (whose
// busy timeouts log on the NAP's system log — the "From NAP" columns of
// Table 2).
func (n *NAP) accept(connID uint64, peer string) (hci.Handle, error) {
	if n.active == MaxSlaves {
		return hci.InvalidHandle, core.NewSimError(core.CodeHCICommandTimeout, "nap.slots_full", n.Node)
	}
	hd, res := n.HCI.AcceptConnection(peer)
	if res.Err != nil {
		return hci.InvalidHandle, res.Err
	}
	n.slots[n.active] = connID
	n.active++
	return hd, nil
}

// release frees the slot for a connection. Releasing an unknown connection
// is harmless: teardown can race reset.
func (n *NAP) release(connID uint64) {
	for i := range n.active {
		if n.slots[i] == connID {
			n.active--
			n.slots[i] = n.slots[n.active]
			return
		}
	}
}

// PANU is the client side of the profile for one node.
type PANU struct {
	cfg  Config
	node string

	hci  *hci.Host
	mux  *l2cap.Mux
	bnep *bnep.Service
	rng  *rand.Rand
	sink hci.Sink

	nextConnID *uint64 // shared across the testbed for unique conn IDs
}

// NewPANU builds the PANU role. nextConnID supplies unique connection IDs;
// pass a testbed-wide counter so logs correlate across nodes.
func NewPANU(cfg Config, node string, h *hci.Host, mux *l2cap.Mux, b *bnep.Service,
	nextConnID *uint64, rng *rand.Rand, sink hci.Sink) *PANU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if h == nil || mux == nil || b == nil || nextConnID == nil {
		panic("pan: PANU missing a dependency")
	}
	return &PANU{cfg: cfg, node: node, hci: h, mux: mux, bnep: b,
		nextConnID: nextConnID, rng: rng, sink: sink}
}

// Connect runs the PAN connection procedure toward nap over an established
// baseband link (HCI handle hd), building the connection in conn, which it
// resets first. freshSDP reports whether the workload performed the SDP
// search this cycle; connecting from a cached record is where nearly all
// PAN-connect failures come from. On failure conn is left closed.
func (p *PANU) Connect(hd hci.Handle, nap *NAP, freshSDP bool, conn *Conn) Result {
	// Link-level admission at the NAP first: the master answers the page
	// and accepts the connection. A busy NAP controller times the accept
	// out, which the paper classifies as an L2CAP-establishment failure
	// ("Connect failed", with the HCI evidence in the NAP's system log).
	*p.nextConnID++
	id := *p.nextConnID
	*conn = Conn{ID: id, Handle: hd}
	napHd, err := nap.accept(id, p.node)
	if err != nil {
		return Result{Stage: StageL2CAP, Err: err}
	}
	conn.NAPHandle = napHd

	var lres l2cap.Result
	conn.Channel, lres = p.mux.Connect(hd, l2cap.PSMBNEP)
	if lres.Err != nil {
		nap.release(id)
		nap.HCI.Disconnect(napHd)
		return Result{Dur: lres.Dur, Stage: StageL2CAP, Err: lres.Err}
	}
	ch := &conn.Channel
	total := lres.Dur

	// BNEP setup validates the connection against the NAP's live service
	// registry. A stale cached record fails that validation; the NAP's SDP
	// daemon logs the mismatch (error propagation: the evidence lands in
	// the NAP's system log, per Table 2's SDP column for PAN connect).
	failProb := p.cfg.FreshFailProb
	if !freshSDP {
		failProb = p.cfg.StaleCacheFailProb
	}
	if p.rng.Float64() < failProb {
		if nap.SDP != nil {
			nap.SDP.LogStaleRecord()
		}
		p.mux.Disconnect(ch)
		nap.release(id)
		nap.HCI.Disconnect(napHd)
		return Result{Dur: total, Stage: StagePAN,
			Err: core.NewSimError(core.CodeSDPServiceMissing, "pan.connect", p.node)}
	}

	iface, bres := p.bnep.CreateChannel(ch)
	total += bres.Dur
	if bres.Err != nil {
		p.mux.Disconnect(ch)
		nap.release(id)
		nap.HCI.Disconnect(napHd)
		return Result{Dur: total, Stage: StagePAN, Err: bres.Err}
	}
	conn.Iface = iface
	conn.Open = true
	return Result{Dur: total, Stage: StageNone}
}

// SwitchRole performs the master/slave switch so the NAP becomes piconet
// master. The two legs fail independently:
//
//   - request leg: the HCI switch-role command transmission can time out
//     (surfaces as "Sw role request failed");
//   - command leg: the switch executes but completes abnormally from one of
//     several transient causes (surfaces as "Sw role command failed").
//
// The returned Stage is StageSwitch for both; the caller distinguishes the
// legs with RequestLegFailed.
func (p *PANU) SwitchRole(conn *Conn, nap *NAP) Result {
	if conn == nil || !conn.Open {
		return Result{Stage: StageSwitch,
			Err: core.NewSimError(core.CodeHCIInvalidHandle, "pan.switch_role", p.node)}
	}
	// Request leg.
	res := p.hci.SwitchRole(conn.Handle)
	total := res.Dur
	if res.Err != nil {
		return Result{Dur: total, Stage: StageSwitch, Err: res.Err}
	}
	if p.rng.Float64() < p.cfg.SwitchReqExtraTimeout {
		if p.sink != nil {
			p.sink(core.CodeHCICommandTimeout, "pan.switch_role_req")
		}
		return Result{Dur: total, Stage: StageSwitch,
			Err: core.NewSimError(core.CodeHCICommandTimeout, "pan.switch_role_req", p.node)}
	}

	// Command leg: completion crosses the transport again (BCSP reordering
	// on the PDAs bites here), and several transient conditions can abort
	// the switch.
	cres := p.hci.CommandOnHandle("pan.switch_role_cmd", conn.Handle, 9)
	total += cres.Dur
	if cres.Err != nil {
		return Result{Dur: total, Stage: StageSwitch, Err: cres.Err}
	}
	switch u := p.rng.Float64(); {
	case u < p.cfg.SwitchCmdL2CAPProb:
		if p.sink != nil {
			p.sink(core.CodeL2CAPUnexpectedFrame, "pan.switch_role_cmd")
		}
		return Result{Dur: total, Stage: StageSwitch,
			Err: core.NewSimError(core.CodeL2CAPUnexpectedFrame, "pan.switch_role_cmd", p.node)}
	case u < p.cfg.SwitchCmdL2CAPProb+p.cfg.SwitchCmdBNEPProb:
		if p.sink != nil {
			p.sink(core.CodeBNEPOccupied, "pan.switch_role_cmd")
		}
		return Result{Dur: total, Stage: StageSwitch,
			Err: core.NewSimError(core.CodeBNEPOccupied, "pan.switch_role_cmd", p.node)}
	case u < p.cfg.SwitchCmdL2CAPProb+p.cfg.SwitchCmdBNEPProb+p.cfg.SwitchCmdHCIProb:
		if p.sink != nil {
			p.sink(core.CodeHCIInvalidHandle, "pan.switch_role_cmd")
		}
		return Result{Dur: total, Stage: StageSwitch,
			Err: core.NewSimError(core.CodeHCIInvalidHandle, "pan.switch_role_cmd", p.node)}
	}
	conn.MasterIsNAP = true
	return Result{Dur: total + p.cfg.RoleSwitchTime, Stage: StageNone}
}

// RequestLegFailed reports whether a switch-role failure was the request leg
// (command transmission timeout) as opposed to abnormal command completion.
func RequestLegFailed(err error) bool {
	var se *core.SimError
	if !errors.As(err, &se) {
		return false
	}
	return se.Code == core.CodeHCICommandTimeout
}

// Abort tears a connection down quietly after a failure: state is dropped
// on both sides without running the signalling handshakes (which would fail
// against already-broken state and pollute the logs with teardown noise).
func (p *PANU) Abort(conn *Conn, nap *NAP) {
	if conn == nil || !conn.Open {
		return
	}
	conn.Open = false
	p.bnep.DestroyChannel()
	if conn.Channel.State == l2cap.StateOpen {
		conn.Channel.State = l2cap.StateClosed
	}
	p.mux.Reset()
	if p.hci.ValidHandle(conn.Handle) {
		p.hci.Reset()
	}
	nap.release(conn.ID)
	if nap.HCI.ValidHandle(conn.NAPHandle) {
		nap.HCI.Disconnect(conn.NAPHandle)
	}
}

// Disconnect tears the PAN connection down: BNEP interface, L2CAP channel,
// baseband link, NAP slot.
func (p *PANU) Disconnect(conn *Conn, nap *NAP) Result {
	if conn == nil || !conn.Open {
		return Result{Stage: StageNone}
	}
	conn.Open = false
	p.bnep.DestroyChannel()
	res := p.mux.Disconnect(&conn.Channel)
	hres := p.hci.Disconnect(conn.Handle)
	nap.release(conn.ID)
	nap.HCI.Disconnect(conn.NAPHandle)
	return Result{Dur: res.Dur + hres.Dur, Stage: StageNone}
}
