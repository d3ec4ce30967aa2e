// Package stack composes one complete Bluetooth host of the testbed: HCI,
// L2CAP, SDP, BNEP and PAN layers over a transport, the OS model with its
// hotplug/HAL daemon, the IP socket layer whose bind() races interface
// configuration, and the data-plane pipe that carries BlueTest transfers.
//
// The package owns two of the paper's failure mechanisms end to end:
//
//   - "Bind failed": the PAN-connect API is not synchronous with T_C (L2CAP
//     handle validity) and T_H (BNEP interface configuration by hotplug), so
//     an immediate bind races both intervals. Hosts carrying the HAL defect
//     the paper traced to Fedora's new Hardware Abstraction Layer (Azzurro)
//     and to Windows (Win) lose or delay hotplug events, which is why bind
//     failures appear only on those two machines (Figure 4);
//   - connection "infant mortality" (Figure 3b): connection setup can leave
//     latent defects (corrupted stack structures) that surface within the
//     first packets of a transfer.
package stack

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/bnep"
	"repro/internal/core"
	"repro/internal/hci"
	"repro/internal/sim"
)

// OSInfo describes a host's operating system, per the paper's Table 1.
type OSInfo struct {
	Family       string // "Linux" or "Windows"
	Distribution string // e.g. "Mandrake", "Fedora", "Familiar 0.8.1"
	Kernel       string // e.g. "2.4.21-0.13mdk"

	// HALDefect marks the defective hotplug/HAL behaviour observed on
	// Azzurro (Fedora) and Win: hotplug events get delayed or lost.
	HALDefect bool

	// BootTime is the reboot duration used by the system-reboot SIRAs.
	BootTime sim.Time

	// AppRestartTime is the BlueTest restart duration on this OS.
	AppRestartTime sim.Time
}

// HotplugConfig parameterises the hotplug/HAL daemon. The HAL defect is
// intermittent: most interface creations configure normally even on
// defective hosts, but occasionally the event is served late (delay x
// DefectDelayFactor) or lost outright — those occasions are the bind
// failures of Figure 4.
type HotplugConfig struct {
	// ConfigDelay is the healthy-path delay between interface creation and
	// configuration (the OS half of T_H).
	ConfigDelay sim.Time

	// DefectDelayFactor multiplies ConfigDelay when the defect manifests as
	// a late event.
	DefectDelayFactor float64

	// DefectExtendProb is the per-creation probability (on HAL-defective
	// hosts only) that the event is served late.
	DefectExtendProb float64

	// DefectLossProb is the per-creation probability (defective hosts only)
	// that the event is lost outright; the HAL daemon then times out.
	DefectLossProb float64

	// HALTimeout is how long the HAL daemon waits before logging its
	// timeout when the event was lost.
	HALTimeout sim.Time
}

// DefaultHotplugConfig returns calibrated hotplug parameters.
func DefaultHotplugConfig() HotplugConfig {
	return HotplugConfig{
		ConfigDelay:       80 * sim.Millisecond,
		DefectDelayFactor: 14,
		DefectExtendProb:  1.5e-4,
		DefectLossProb:    4e-5,
		HALTimeout:        10 * sim.Second,
	}
}

// Validate reports configuration errors.
func (c HotplugConfig) Validate() error {
	switch {
	case c.ConfigDelay <= 0 || c.HALTimeout <= 0:
		return fmt.Errorf("stack: non-positive hotplug timing")
	case c.DefectDelayFactor < 1:
		return fmt.Errorf("stack: defect delay factor %v < 1", c.DefectDelayFactor)
	case c.DefectExtendProb < 0 || c.DefectExtendProb > 1 ||
		c.DefectLossProb < 0 || c.DefectLossProb > 1:
		return fmt.Errorf("stack: hotplug probability out of range")
	default:
		return nil
	}
}

// Hotplug is the hotplug/HAL daemon of one host: it configures BNEP
// interfaces after creation and logs HAL timeouts when events are lost.
type Hotplug struct {
	cfg    HotplugConfig
	world  *sim.World
	defect bool
	rng    *rand.Rand
	sink   hci.Sink

	// lostIface and lostGen name the interface generation whose event was
	// lost and not yet kicked (lostIface nil: none).
	lostIface *bnep.Interface
	lostGen   uint64

	free []*hotplugEvent // fired events, for reuse
}

// eventKind is what a scheduled hotplug event does when it fires.
type eventKind uint8

// Event kinds.
const (
	configureEvent  eventKind = iota // configure the interface
	halTimeoutEvent                  // log the HAL timeout of a lost event
)

// hotplugEvent is one scheduled daemon action on an interface, for the
// interface generation it was issued for. The BNEP service reuses one
// Interface value across connections, so an event outliving its connection
// must find the generation moved on and leave the new connection's
// interface alone. Events are pre-bound and recycled through the daemon's
// free list, so scheduling one allocates nothing once the list is warm.
type hotplugEvent struct {
	h     *Hotplug
	kind  eventKind
	iface *bnep.Interface
	gen   uint64
	fire  func()
}

// schedule places an event of the given kind for generation gen of iface,
// d after the current instant.
func (h *Hotplug) schedule(d sim.Time, kind eventKind, iface *bnep.Interface, gen uint64) {
	var e *hotplugEvent
	if n := len(h.free); n > 0 {
		e = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		e = &hotplugEvent{h: h}
		e.fire = e.run
	}
	e.kind, e.iface, e.gen = kind, iface, gen
	h.world.ScheduleAfter(d, e.fire)
}

// run fires the event and returns it to the free list.
func (e *hotplugEvent) run() {
	h, kind, iface, gen := e.h, e.kind, e.iface, e.gen
	e.iface = nil
	h.free = append(h.free, e)
	current := iface.Gen == gen
	switch kind {
	case configureEvent:
		if current {
			iface.Configured = true
		}
	case halTimeoutEvent:
		// Only log while this generation's event is still lost: a Kick
		// clears lostIface, a later loss moves lostGen on, and an
		// interface of this generation may have been configured since. A
		// teardown does not stop the log.
		if h.lostIface != nil && h.lostGen == gen && (!current || !iface.Configured) {
			if h.sink != nil {
				h.sink(core.CodeHotplugTimeout, "hotplug.wait_event")
			}
		}
	}
}

// NewHotplug builds the daemon for a host.
func NewHotplug(cfg HotplugConfig, world *sim.World, defect bool, rng *rand.Rand, sink hci.Sink) *Hotplug {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if world == nil {
		panic("stack: nil world")
	}
	return &Hotplug{cfg: cfg, world: world, defect: defect, rng: rng, sink: sink}
}

// delay reports the configuration delay, late reports whether the defect
// manifested as a late event this time.
func (h *Hotplug) delay(late bool) sim.Time {
	d := h.cfg.ConfigDelay
	if late {
		d = sim.Time(float64(d) * h.cfg.DefectDelayFactor)
	}
	// +-25% jitter keeps the race probabilistic rather than a step function.
	jitter := 0.75 + h.rng.Float64()*0.5
	return sim.Time(float64(d) * jitter)
}

// OnCreated reacts to a freshly created BNEP interface: normally it
// schedules the configuration event after its delay; when the intermittent
// HAL defect manifests, the event is either served late or lost — a lost
// event schedules the HAL timeout log instead and leaves the interface
// unconfigured until a Kick.
func (h *Hotplug) OnCreated(iface *bnep.Interface) {
	if iface == nil {
		return
	}
	late := false
	if h.defect {
		switch u := h.rng.Float64(); {
		case u < h.cfg.DefectLossProb:
			h.lostIface, h.lostGen = iface, iface.Gen
			h.schedule(h.cfg.HALTimeout, halTimeoutEvent, iface, iface.Gen)
			return
		case u < h.cfg.DefectLossProb+h.cfg.DefectExtendProb:
			late = true
		}
	}
	h.schedule(h.delay(late), configureEvent, iface, iface.Gen)
}

// Kick retries configuration of a lost interface (the masking strategy's
// instrumented hotplug notification path). It reports whether a retry was
// actually pending.
func (h *Hotplug) Kick() bool {
	iface, gen := h.lostIface, h.lostGen
	if iface == nil || iface.Gen == gen && iface.Configured {
		return false
	}
	h.lostIface = nil
	h.schedule(h.cfg.ConfigDelay, configureEvent, iface, gen)
	return true
}
