// Package traffic implements the application traffic models behind the
// Realistic workload (the paper's §3, following Crovella–Bestavros for the
// Web's self-similar heavy tails and the Sprint backbone measurements of
// Fraleigh et al. for PDU sizes): Web browsing, e-mail, FTP, peer-to-peer
// and audio/video streaming.
//
// Figure 3c's finding — P2P and streaming are the most failure-prone
// applications for BT PANs, Web/Mail/FTP the least — emerges from these
// models mechanically: P2P moves the most bytes per session over saturated,
// long-lived connections; streaming runs long isochronous sessions at a
// moderate rate; the interactive applications transfer little and
// intermittently.
package traffic

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/stats"
)

// Common Internet PDU sizes (Fraleigh et al.): pure-ACK, old default MSS,
// and Ethernet-MSS data segments.
const (
	PDUAck = 40

	PDUData = 1460
)

// Plan is the sampled transfer plan for one realistic-workload cycle.
type Plan struct {
	App core.AppKind

	// Bytes is the total volume moved this cycle (both directions).
	Bytes int

	// SendPDU and RecvPDU are the uplink/downlink packet sizes (L_S, L_R).
	SendPDU, RecvPDU int

	// SendFrac is the uplink share of Bytes.
	SendFrac float64
}

// Packets reports the downlink/uplink packet counts implied by the plan.
func (p Plan) Packets() (send, recv int) {
	sendBytes := int(float64(p.Bytes) * p.SendFrac)
	recvBytes := p.Bytes - sendBytes
	send = (sendBytes + p.SendPDU - 1) / p.SendPDU
	recv = (recvBytes + p.RecvPDU - 1) / p.RecvPDU
	if send == 0 && recv == 0 {
		recv = 1
	}
	return send, recv
}

// Sample draws a transfer plan for app. scale multiplies all volumes, which
// lets fast campaigns shrink transfer sizes without changing the relative
// shape across applications (the figures normalise to shares).
func Sample(app core.AppKind, rng *rand.Rand, scale float64) Plan {
	if scale <= 0 {
		panic(fmt.Sprintf("traffic: non-positive scale %v", scale))
	}
	var p Plan
	p.App = app
	switch app {
	case core.AppWeb:
		// Page + embedded objects: heavy-tailed (Crovella-Bestavros).
		size := stats.BoundedPareto{L: 2 << 10, H: 2 << 20, Alpha: 1.3}.Sample(rng)
		p.Bytes = int(size)
		p.SendPDU, p.RecvPDU = PDUAck, PDUData
		p.SendFrac = 0.06 // requests + ACKs
	case core.AppMail:
		// Message sizes: log-normal, median ~8 KB.
		size := stats.LogNormal{Mu: math.Log(8 << 10), Sigma: 1.0}.Sample(rng)
		if size > 1<<20 {
			size = 1 << 20
		}
		p.Bytes = int(size)
		p.SendPDU, p.RecvPDU = PDUData, PDUAck
		p.SendFrac = 0.92 // SMTP upload dominates
	case core.AppFTP:
		size := stats.BoundedPareto{L: 10 << 10, H: 20 << 20, Alpha: 1.15}.Sample(rng)
		p.Bytes = int(size)
		p.SendPDU, p.RecvPDU = PDUAck, PDUData
		p.SendFrac = 0.04
	case core.AppP2P:
		// Chunked file-sharing: the heaviest tail, bidirectional, and the
		// largest expected volume of all applications.
		size := stats.BoundedPareto{L: 512 << 10, H: 32 << 20, Alpha: 1.1}.Sample(rng)
		p.Bytes = int(size)
		p.SendPDU, p.RecvPDU = PDUData, PDUData
		p.SendFrac = 0.35
	case core.AppStreaming:
		// Session duration x codec rate: isochronous.
		dur := stats.Uniform{Lo: 30, Hi: 180}.Sample(rng) // seconds
		const rate = 16 << 10                             // 16 KB/s (128 kbit/s codec)
		p.Bytes = int(dur * rate)
		p.SendPDU, p.RecvPDU = PDUAck, PDUData
		p.SendFrac = 0.02
	default:
		panic(fmt.Sprintf("traffic: no model for app %v", app))
	}
	p.Bytes = int(float64(p.Bytes) * scale)
	if p.Bytes < p.RecvPDU {
		p.Bytes = p.RecvPDU
	}
	return p
}

// appMix is the relative popularity of the emulated applications in the
// realistic workload (documented reproduction choice; the paper's TR fixes
// the mix but only the resulting failure shares are published).
var appMix = []struct {
	app    core.AppKind
	weight float64
}{
	{core.AppWeb, 0.34},
	{core.AppMail, 0.16},
	{core.AppFTP, 0.12},
	{core.AppP2P, 0.22},
	{core.AppStreaming, 0.16},
}

// appWeights is appMix's weight column, in the same order.
var appWeights = func() []float64 {
	w := make([]float64, len(appMix))
	for i, m := range appMix {
		w[i] = m.weight
	}
	return w
}()

// RandomApp draws an application according to the workload mix.
func RandomApp(rng *rand.Rand) core.AppKind {
	return appMix[stats.WeightedChoice(rng, appWeights)].app
}
