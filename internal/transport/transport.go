// Package transport models the host↔controller paths of the testbed
// machines: H4 UART serial, USB, and the BlueCore Serial Protocol (BCSP)
// used by the PDAs (iPAQ H3870, Zaurus SL-5600).
//
// The paper's "Sw role command failed" failures cluster on the PDAs because
// BCSP multiplexes parallel information flows over a single UART link with
// its own sequencing, and out-of-order or missing BCSP packets corrupt
// in-flight HCI exchanges (49.7 % of switch-role command failures). The BCSP
// implementation here is a real framing codec plus a sliding-window reliable
// link engine; the simulation adapter drives it over a lossy, reordering
// byte pipe.
package transport

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/sim"
)

// Kind distinguishes the host transport technologies in the testbeds.
type Kind int

// Transport kinds.
const (
	KindUnknown Kind = iota
	KindH4           // plain UART, HCI UART transport layer
	KindUSB          // USB with HCI over bulk/interrupt endpoints
	KindBCSP         // BlueCore Serial Protocol over UART
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindH4:
		return "H4-UART"
	case KindUSB:
		return "USB"
	case KindBCSP:
		return "BCSP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Result reports one host→controller delivery attempt.
type Result struct {
	Latency sim.Time
	// Err is nil on success; otherwise a *core.SimError whose code
	// identifies the transport-level failure for the system log.
	Err error
}

// Transport carries HCI traffic between host stack and controller.
type Transport interface {
	Kind() Kind
	// Deliver carries one message of size bytes, returning the latency and
	// a transport error if the path failed.
	Deliver(size int) Result
}

// H4Config parameterises the plain-UART transport.
type H4Config struct {
	BaudRate int // bits per second, e.g. 115200
}

// H4 is the plain UART transport: no sequencing, no error recovery of its
// own; errors surface at the HCI layer instead, so Deliver never fails.
type H4 struct {
	cfg H4Config
}

var _ Transport = (*H4)(nil)

// NewH4 builds an H4 transport. A non-positive baud rate panics.
func NewH4(cfg H4Config) *H4 {
	if cfg.BaudRate <= 0 {
		panic(fmt.Sprintf("transport: bad baud rate %d", cfg.BaudRate))
	}
	return &H4{cfg: cfg}
}

// Kind reports KindH4.
func (h *H4) Kind() Kind { return KindH4 }

// Deliver models serialisation delay only (10 bits per byte on a UART).
func (h *H4) Deliver(size int) Result {
	bits := (size + 1) * 10 // +1 for the H4 packet-type indicator byte
	lat := sim.Time(int64(bits) * int64(sim.Second) / int64(h.cfg.BaudRate))
	return Result{Latency: lat}
}

// USBConfig parameterises the USB transport and its stall fault.
type USBConfig struct {
	// LatencyPerKB is the bulk-transfer time per kilobyte.
	LatencyPerKB sim.Time
	// StallProb is the per-delivery probability that the device refuses to
	// accept new addresses (the Table 1 "USB" system failure). A stall
	// persists for StallDuration: deliveries during it keep failing, which
	// is what lets several user-level failures coalesce onto one USB error
	// burst in the logs.
	StallProb     float64
	StallDuration sim.Time
}

// DefaultUSBConfig returns calibrated USB parameters.
func DefaultUSBConfig() USBConfig {
	return USBConfig{
		LatencyPerKB:  400 * sim.Microsecond,
		StallProb:     2e-5,
		StallDuration: 4 * sim.Second,
	}
}

// USB is the USB host transport with its address-stall fault.
type USB struct {
	cfg        USBConfig
	clock      func() sim.Time
	rng        *rand.Rand
	node       string
	stallUntil sim.Time
}

var _ Transport = (*USB)(nil)

// NewUSB builds a USB transport; clock supplies the current virtual time
// (usually world.Now).
func NewUSB(cfg USBConfig, node string, clock func() sim.Time, rng *rand.Rand) *USB {
	if cfg.StallProb < 0 || cfg.StallProb > 1 {
		panic(fmt.Sprintf("transport: stall probability %v out of range", cfg.StallProb))
	}
	return &USB{cfg: cfg, clock: clock, rng: rng, node: node}
}

// Kind reports KindUSB.
func (u *USB) Kind() Kind { return KindUSB }

// Deliver carries one message unless the device is stalled.
func (u *USB) Deliver(size int) Result {
	now := u.clock()
	if now < u.stallUntil {
		return Result{
			Latency: sim.Millisecond,
			Err:     core.NewSimError(core.CodeUSBAddressStall, "usb.deliver", u.node),
		}
	}
	if u.cfg.StallProb > 0 && u.rng.Float64() < u.cfg.StallProb {
		u.stallUntil = now + u.cfg.StallDuration
		return Result{
			Latency: sim.Millisecond,
			Err:     core.NewSimError(core.CodeUSBAddressStall, "usb.deliver", u.node),
		}
	}
	kb := int64(size+1023) / 1024
	if kb < 1 {
		kb = 1
	}
	return Result{Latency: sim.Time(kb * int64(u.cfg.LatencyPerKB))}
}
