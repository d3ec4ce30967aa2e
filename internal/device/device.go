// Package device is the hardware catalogue of the paper's testbeds: the
// seven heterogeneous machines of Figure 1/Table 1, their operating systems,
// Bluetooth stacks, host transports, and antenna distances from the NAP.
//
// Each testbed is composed of one NAP (Giallo) and six PANUs (Verde, Miseno,
// Azzurro, Win, the iPAQ H3870 and the Zaurus SL-5600). Both testbeds use
// the same configuration, per the paper. The PDAs speak BCSP to their
// on-board radios; the PCs use USB dongles; the Windows machine runs the
// Broadcom stack (the native XP stack exposes no PAN API); Azzurro (Fedora)
// and Win carry the HAL/hotplug defect behind the bind failures of Figure 4.
//
// The paper states antennas sit at 0.5 m, 5 m and 7 m but not which host
// sits where; we assign two PANUs per distance (documented in
// ARCHITECTURE.md as a reproduction assumption).
package device

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/transport"
)

// Spec describes one testbed machine.
type Spec struct {
	Name       string
	CPU        string
	RAM        string
	BTHardware string
	BTStack    string

	OS        stack.OSInfo
	Transport transport.Kind
	DistanceM float64
	IsPDA     bool
	IsNAP     bool
}

// Catalog returns the seven machines of one testbed, NAP first.
func Catalog() []Spec {
	return []Spec{
		{
			Name: "Giallo", CPU: "P4 1.60GHz", RAM: "128Mb",
			BTHardware: "Anycom CC3030", BTStack: "BlueZ 2.10",
			OS: stack.OSInfo{
				Family: "Linux", Distribution: "Mandrake", Kernel: "2.4.21-0.13mdk",
				BootTime: 95 * sim.Second, AppRestartTime: 7 * sim.Second,
			},
			Transport: transport.KindUSB, DistanceM: 0, IsNAP: true,
		},
		{
			Name: "Verde", CPU: "P3 350MHz", RAM: "256Mb",
			BTHardware: "3COM 3CREB96B", BTStack: "BlueZ 2.10",
			OS: stack.OSInfo{
				Family: "Linux", Distribution: "Mandrake", Kernel: "2.4.21-0.13mdk",
				BootTime: 110 * sim.Second, AppRestartTime: 9 * sim.Second,
			},
			Transport: transport.KindUSB, DistanceM: 0.5,
		},
		{
			Name: "Miseno", CPU: "Celeron 700MHz", RAM: "128Mb",
			BTHardware: "Belkin F8T003", BTStack: "BlueZ 2.10",
			OS: stack.OSInfo{
				Family: "Linux", Distribution: "Debian", Kernel: "2.6.5-1-386",
				BootTime: 100 * sim.Second, AppRestartTime: 8 * sim.Second,
			},
			Transport: transport.KindUSB, DistanceM: 5,
		},
		{
			Name: "Azzurro", CPU: "P3 350MHz", RAM: "256Mb",
			BTHardware: "Digicom Palladio", BTStack: "BlueZ 2.10",
			OS: stack.OSInfo{
				Family: "Linux", Distribution: "Fedora", Kernel: "2.6.9-1-667",
				HALDefect: true, // the paper's HAL/hotplug defect (Figure 4)
				BootTime:  105 * sim.Second, AppRestartTime: 8 * sim.Second,
			},
			Transport: transport.KindUSB, DistanceM: 5,
		},
		{
			Name: "Win", CPU: "P4 1.80Ghz", RAM: "512Mb",
			BTHardware: "Sitecom CN-500", BTStack: "Broadcomm",
			OS: stack.OSInfo{
				Family: "Windows", Distribution: "XP SP2", Kernel: "5.1.2600",
				HALDefect: true, // bind failures also manifest on Win
				BootTime:  130 * sim.Second, AppRestartTime: 10 * sim.Second,
			},
			Transport: transport.KindUSB, DistanceM: 0.5,
		},
		{
			Name: "Ipaq", CPU: "StrongARM 206MHz", RAM: "64Mb",
			BTHardware: "on board", BTStack: "BlueZ 2.10",
			OS: stack.OSInfo{
				Family: "Linux", Distribution: "Familiar 0.8.1", Kernel: "2.4.19-rmk6-pxa1-hh37",
				BootTime: 55 * sim.Second, AppRestartTime: 14 * sim.Second,
			},
			Transport: transport.KindBCSP, DistanceM: 7, IsPDA: true,
		},
		{
			Name: "Zaurus", CPU: "XScale 400MHz", RAM: "32Mb",
			BTHardware: "on board", BTStack: "BlueZ 2.10",
			OS: stack.OSInfo{
				Family: "Linux", Distribution: "OpenZaurus 3.5.2", Kernel: "2.4.18-rmk7-pxa3-embedix",
				BootTime: 50 * sim.Second, AppRestartTime: 13 * sim.Second,
			},
			Transport: transport.KindBCSP, DistanceM: 7, IsPDA: true,
		},
	}
}

// NAP returns the catalogue's access-point machine.
func NAP() Spec {
	for _, s := range Catalog() {
		if s.IsNAP {
			return s
		}
	}
	panic("device: catalogue has no NAP")
}

// PANUs returns the catalogue minus the NAP.
func PANUs() []Spec {
	var out []Spec
	for _, s := range Catalog() {
		if !s.IsNAP {
			out = append(out, s)
		}
	}
	return out
}

// ByName looks a machine up in the catalogue.
//
// Test seam: workload's newPair, which builds every client test's devices.
func ByName(name string) (Spec, error) {
	for _, s := range Catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("device: no machine %q in the catalogue", name)
}

// BuildTransport constructs the machine's host transport.
func (s Spec) BuildTransport(world *sim.World) transport.Transport {
	switch s.Transport {
	case transport.KindBCSP:
		return transport.NewBCSPSim(transport.DefaultBCSPConfig(), s.Name,
			world.RNG("transport."+s.Name))
	case transport.KindUSB:
		return transport.NewUSB(transport.DefaultUSBConfig(), s.Name,
			func() sim.Time { return world.Now() },
			world.RNG("transport."+s.Name))
	default:
		return transport.NewH4(transport.H4Config{BaudRate: 115200})
	}
}

// HostConfig returns the machine's stack configuration: the calibrated
// defaults with per-device adjustments (distance-specific radio parameters;
// nothing else differs across machines — heterogeneity enters through the
// transport kind and the OS flags).
func (s Spec) HostConfig() stack.Config {
	return stack.DefaultHostConfig(s.DistanceM)
}

// BuildHost assembles the machine as a live simulation host.
func (s Spec) BuildHost(world *sim.World, nextConnID *uint64, sink stack.Sink) *stack.Host {
	return stack.NewHost(s.HostConfig(), world, s.Name, s.OS, s.DistanceM,
		s.IsPDA, s.IsNAP, s.BuildTransport(world), nextConnID, sink)
}
