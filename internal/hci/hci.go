// Package hci implements the Host Controller Interface of the simulated
// Bluetooth stack: the command/event machine through which the host drives
// inquiry, connection establishment, role switching and disconnection.
//
// Its two failure modes are the paper's highest-impact system errors (HCI
// accounts for 49.9 % of user-level failures in Table 2):
//
//   - command transmission timeout — the command never reaches the firmware,
//     typically when a connection request or accept is issued on a busy
//     device (the cause of most "Connect failed" and nearly all "Sw role
//     request failed" user failures);
//   - command for unknown connection handle — a command races a handle that
//     does not exist yet or is already torn down (one leg of the "Bind
//     failed" race).
package hci

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Handle is an HCI connection handle.
type Handle uint16

// InvalidHandle is the zero, never-allocated handle.
const InvalidHandle Handle = 0

// maxHandles is the number of allocatable handles: every uint16 but
// InvalidHandle.
const maxHandles = 1<<16 - 1

// Config parameterises the HCI host's timing and fault behaviour.
type Config struct {
	// CommandTimeout is the host-side guard on command completion. The
	// paper's masking analysis suggests raising it to suppress "Sw role
	// request failed"; recovery.MaskSwitchRoleRetry models that effect.
	CommandTimeout sim.Time

	// BaseLatency is the firmware execution time of a simple command.
	BaseLatency sim.Time

	// ConnSetupTime is the baseband paging time for connection setup.
	ConnSetupTime sim.Time

	// TimeoutProbIdle is the probability that a command transmission times
	// out on an otherwise idle device (residual firmware flakiness).
	TimeoutProbIdle float64

	// TimeoutProbBusy is the same probability while the controller is busy
	// with paging/inquiry — the dominant case in the paper.
	TimeoutProbBusy float64

	// InquiryDuration is the length of a standard inquiry scan.
	InquiryDuration sim.Time

	// InquiryFailProb is the probability the inquiry procedure terminates
	// abnormally (the unexplained "Inquiry/scan failed" of Table 2, for
	// which no error-failure relationship was found).
	InquiryFailProb float64
}

// DefaultConfig returns calibrated HCI parameters.
func DefaultConfig() Config {
	return Config{
		CommandTimeout:  5 * sim.Second,
		BaseLatency:     2 * sim.Millisecond,
		ConnSetupTime:   640 * sim.Millisecond, // ~1 page-scan interval
		TimeoutProbIdle: 2e-5,
		TimeoutProbBusy: 4.2e-2,
		InquiryDuration: 10240 * sim.Millisecond, // 8 x 1.28 s trains
		InquiryFailProb: 2e-4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CommandTimeout <= 0 || c.BaseLatency <= 0 || c.ConnSetupTime <= 0 || c.InquiryDuration <= 0:
		return fmt.Errorf("hci: non-positive timing parameter")
	case c.TimeoutProbIdle < 0 || c.TimeoutProbIdle > 1 ||
		c.TimeoutProbBusy < 0 || c.TimeoutProbBusy > 1 ||
		c.InquiryFailProb < 0 || c.InquiryFailProb > 1:
		return fmt.Errorf("hci: probability out of range")
	default:
		return nil
	}
}

// Sink receives system-level error notifications for the system log.
type Sink func(code core.ErrorCode, op string)

// Result reports one HCI command.
type Result struct {
	Dur sim.Time // host-observed command duration
	Err error    // nil, or *core.SimError
}

// Host is the HCI layer of one node.
type Host struct {
	cfg   Config
	node  string
	tr    transport.Transport
	rng   *rand.Rand
	clock func() sim.Time
	sink  Sink

	// live is the set of live connection handles, sorted ascending.
	// Handles are issued in increasing order between wraps, so a new
	// handle is almost always appended; a Disconnect that times out leaks
	// its handle, which stays live until Reset.
	nextHandle Handle
	live       []Handle
	busyUntil  sim.Time
}

// NewHost builds the HCI layer. sink may be nil (errors still returned).
func NewHost(cfg Config, node string, tr transport.Transport, clock func() sim.Time, rng *rand.Rand, sink Sink) *Host {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if tr == nil || clock == nil {
		panic("hci: nil transport or clock")
	}
	return &Host{cfg: cfg, node: node, tr: tr, rng: rng, clock: clock, sink: sink}
}

// Busy reports whether the controller is mid-procedure at the current time.
func (h *Host) Busy() bool { return h.clock() < h.busyUntil }

// SetBusy marks the controller busy until the given instant; overlapping
// windows extend. The piconet layer calls this when a peer initiates paging
// toward this controller.
func (h *Host) SetBusy(until sim.Time) {
	if until > h.busyUntil {
		h.busyUntil = until
	}
}

// ValidHandle reports whether the handle currently names a connection.
func (h *Host) ValidHandle(hd Handle) bool {
	_, ok := slices.BinarySearch(h.live, hd)
	return ok
}

// OpenHandles reports the number of live connection handles.
//
// Test seam: stack's TestResetStackClearsState.
func (h *Host) OpenHandles() int { return len(h.live) }

// allocHandle issues the next connection handle and marks it live. The
// counter wraps after 0xFFFF; it then skips InvalidHandle and every handle
// that is still live, so a handle names at most one connection.
func (h *Host) allocHandle() Handle {
	if len(h.live) == maxHandles {
		panic("hci: connection handles exhausted")
	}
	for {
		h.nextHandle++
		if h.nextHandle == InvalidHandle {
			continue
		}
		if i, ok := slices.BinarySearch(h.live, h.nextHandle); !ok {
			h.live = slices.Insert(h.live, i, h.nextHandle)
			return h.nextHandle
		}
	}
}

// fail raises and logs a SimError.
func (h *Host) fail(code core.ErrorCode, op string, dur sim.Time) Result {
	if h.sink != nil {
		h.sink(code, op)
	}
	return Result{Dur: dur, Err: core.NewSimError(code, op, h.node)}
}

// submit pushes a command through the transport and models the transmission
// timeout window. It returns the accumulated latency and an error when the
// command never reached the firmware.
func (h *Host) submit(op string, size int) (sim.Time, error) {
	res := h.tr.Deliver(size)
	if res.Err != nil {
		// Transport-level fault (BCSP/USB): the transport already carries
		// the right code; surface it as this command's failure.
		if h.sink != nil {
			if se, ok := res.Err.(*core.SimError); ok {
				h.sink(se.Code, op)
			}
		}
		return res.Latency, res.Err
	}
	p := h.cfg.TimeoutProbIdle
	if h.Busy() {
		p = h.cfg.TimeoutProbBusy
	}
	if h.rng.Float64() < p {
		r := h.fail(core.CodeHCICommandTimeout, op, res.Latency+h.cfg.CommandTimeout)
		return r.Dur, r.Err
	}
	return res.Latency + h.cfg.BaseLatency, nil
}

// Inquiry runs the inquiry procedure (device discovery).
func (h *Host) Inquiry() Result {
	lat, err := h.submit("hci.inquiry", 5)
	if err != nil {
		return Result{Dur: lat, Err: err}
	}
	h.SetBusy(h.clock() + h.cfg.InquiryDuration)
	if h.rng.Float64() < h.cfg.InquiryFailProb {
		// Abnormal termination: no specific system error accompanies it
		// (the paper found no error-failure relationship for inquiry).
		return Result{
			Dur: lat + h.cfg.InquiryDuration/2,
			Err: core.NewSimError(core.CodeUnknown, "hci.inquiry", h.node),
		}
	}
	return Result{Dur: lat + h.cfg.InquiryDuration}
}

// CreateConnection pages peer and allocates a connection handle.
func (h *Host) CreateConnection(peer string) (Handle, Result) {
	lat, err := h.submit("hci.create_conn", 13)
	if err != nil {
		return InvalidHandle, Result{Dur: lat, Err: err}
	}
	h.SetBusy(h.clock() + h.cfg.ConnSetupTime)
	return h.allocHandle(), Result{Dur: lat + h.cfg.ConnSetupTime}
}

// AcceptConnection is the responder side of connection setup.
func (h *Host) AcceptConnection(peer string) (Handle, Result) {
	lat, err := h.submit("hci.accept_conn", 7)
	if err != nil {
		return InvalidHandle, Result{Dur: lat, Err: err}
	}
	h.SetBusy(h.clock() + h.cfg.ConnSetupTime)
	return h.allocHandle(), Result{Dur: lat}
}

// Disconnect tears down a connection handle.
func (h *Host) Disconnect(hd Handle) Result {
	i, ok := slices.BinarySearch(h.live, hd)
	if !ok {
		return h.fail(core.CodeHCIInvalidHandle, "hci.disconnect", h.cfg.BaseLatency)
	}
	lat, err := h.submit("hci.disconnect", 6)
	if err != nil {
		return Result{Dur: lat, Err: err}
	}
	h.live = slices.Delete(h.live, i, i+1)
	return Result{Dur: lat}
}

// SwitchRole issues the master/slave switch on a handle. The request leg
// (transmission to firmware) failing is the paper's "Sw role request
// failed"; the caller distinguishes it from command-completion failure by
// the error code.
func (h *Host) SwitchRole(hd Handle) Result {
	if !h.ValidHandle(hd) {
		return h.fail(core.CodeHCIInvalidHandle, "hci.switch_role", h.cfg.BaseLatency)
	}
	lat, err := h.submit("hci.switch_role", 9)
	if err != nil {
		return Result{Dur: lat, Err: err}
	}
	// The switch itself completes within a TDD frame pair.
	return Result{Dur: lat + 10*sim.Slot}
}

// CommandOnHandle issues a generic handle-scoped command on behalf of an
// upper layer (L2CAP uses it for signalling). A stale or not-yet-valid
// handle produces the invalid-handle error.
func (h *Host) CommandOnHandle(op string, hd Handle, size int) Result {
	if !h.ValidHandle(hd) {
		return h.fail(core.CodeHCIInvalidHandle, op, h.cfg.BaseLatency)
	}
	lat, err := h.submit(op, size)
	return Result{Dur: lat, Err: err}
}

// Reset drops all connection state (the HCI_Reset command), used by the
// "BT stack reset" SIRA.
func (h *Host) Reset() {
	h.live = h.live[:0]
	h.busyUntil = 0
}
