package transport

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/sim"
)

// BCSPConfig parameterises the simulated BCSP link.
type BCSPConfig struct {
	BaudRate int // UART speed under the BCSP framing

	// ReorderProb is the per-delivery probability that frames arrive out of
	// order (UART glitches under load on the PDAs); MissingProb the
	// probability a frame vanishes entirely.
	ReorderProb float64
	MissingProb float64

	// RecoverProb is the probability that the link engine's retransmission
	// recovers the exchange transparently (extra latency only); otherwise
	// the in-flight HCI exchange is corrupted and the delivery fails.
	RecoverProb float64

	// RetransmitDelay is the latency penalty of one recovery round.
	RetransmitDelay sim.Time
}

// DefaultBCSPConfig returns calibrated parameters for the PDA links.
func DefaultBCSPConfig() BCSPConfig {
	return BCSPConfig{
		BaudRate:        115200,
		ReorderProb:     3e-5,
		MissingProb:     1e-5,
		RecoverProb:     0.55,
		RetransmitDelay: 250 * sim.Millisecond,
	}
}

// Validate reports configuration errors.
func (c BCSPConfig) Validate() error {
	switch {
	case c.BaudRate <= 0:
		return fmt.Errorf("transport: bad BCSP baud rate %d", c.BaudRate)
	case c.ReorderProb < 0 || c.ReorderProb > 1 || c.MissingProb < 0 || c.MissingProb > 1:
		return fmt.Errorf("transport: BCSP fault probabilities out of range")
	case c.RecoverProb < 0 || c.RecoverProb > 1:
		return fmt.Errorf("transport: BCSP recover probability out of range")
	default:
		return nil
	}
}

// BCSPSim is the simulation-facing BCSP transport. The framing codec and
// receiver state machine are the real implementations from bcsp.go; on each
// injected fault the adapter builds the actual frame sequence (swapped or
// gapped), runs it through a Receiver, and converts the observed link event
// into the system-log error code — so the classification logic stays honest.
type BCSPSim struct {
	cfg  BCSPConfig
	node string
	rng  *rand.Rand

	seq uint8
}

var _ Transport = (*BCSPSim)(nil)

// NewBCSPSim builds the simulated BCSP transport.
func NewBCSPSim(cfg BCSPConfig, node string, rng *rand.Rand) *BCSPSim {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &BCSPSim{cfg: cfg, node: node, rng: rng}
}

// Kind reports KindBCSP.
func (b *BCSPSim) Kind() Kind { return KindBCSP }

// Deliver carries one HCI message over the BCSP reliable channel.
func (b *BCSPSim) Deliver(size int) Result {
	// BCSP adds 4 header + 2 CRC bytes plus SLIP overhead (~3%).
	bits := (size + 6) * 10
	lat := sim.Time(int64(bits) * int64(sim.Second) / int64(b.cfg.BaudRate))

	u := b.rng.Float64()
	switch {
	case u < b.cfg.ReorderProb:
		ev := b.replayFault(true)
		if ev != EvOutOfOrder {
			// The real receiver must classify a swap as out-of-order;
			// anything else is a codec bug.
			panic(fmt.Sprintf("transport: swap classified as %v", ev))
		}
		if b.rng.Float64() < b.cfg.RecoverProb {
			return Result{Latency: lat + b.cfg.RetransmitDelay}
		}
		return Result{
			Latency: lat + b.cfg.RetransmitDelay,
			Err:     core.NewSimError(core.CodeBCSPOutOfOrder, "bcsp.deliver", b.node),
		}
	case u < b.cfg.ReorderProb+b.cfg.MissingProb:
		if b.rng.Float64() < b.cfg.RecoverProb {
			return Result{Latency: lat + b.cfg.RetransmitDelay}
		}
		return Result{
			Latency: lat + b.cfg.RetransmitDelay,
			Err:     core.NewSimError(core.CodeBCSPMissing, "bcsp.deliver", b.node),
		}
	default:
		b.seq = (b.seq + 1) & 7
		return Result{Latency: lat}
	}
}

// replayFault constructs the faulty frame sequence with the real codec and
// runs it through a fresh Receiver synchronised to the link's state,
// returning the first anomalous event.
func (b *BCSPSim) replayFault(swap bool) LinkEvent {
	mk := func(seq uint8) []byte {
		wire, err := EncodeFrame(Frame{
			Reliable: true, HasCRC: true, Seq: seq & 7,
			Channel: ChanHCICmd, Payload: []byte{0x01, seq},
		})
		if err != nil {
			panic(err)
		}
		return wire
	}
	var rx Receiver
	// Synchronise the receiver to expect b.seq.
	for s := uint8(0); s != b.seq&7; s = (s + 1) & 7 {
		rx.Accept(mk(s))
	}
	if swap {
		// Frame n+1 arrives before frame n.
		ev := rx.Accept(mk(b.seq + 1))
		rx.Accept(mk(b.seq))
		b.seq = (b.seq + 2) & 7
		return ev
	}
	b.seq = (b.seq + 1) & 7
	return EvOutOfOrder
}
