// Package radio models the 2.4 GHz ISM-band RF link between two Bluetooth
// units. The paper attributes data-transfer failures to correlated bit
// errors ("bursts") from multi-path fading and electromagnetic interference
// that defeat the baseband's CRC and FEC protections; this package supplies
// exactly that error process.
//
// Each link runs a Gilbert–Elliott two-state Markov chain over baseband
// slots: a good state with a low bit-error rate and a bad (fading) state
// with a high one. On top of the chain, Poisson-arriving interference bursts
// (microwave ovens, 802.11 neighbours) force the channel bad for their
// duration. Distance from the NAP scales the baseline error rate through a
// mild path-loss term — mild, because the paper measured no significant
// failure dependence on distance within its 0.5–7 m testbed geometry.
package radio

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/sim"
)

// Config parameterises a link's error process.
type Config struct {
	// DistanceM is the antenna distance from the NAP in metres.
	DistanceM float64

	// MeanGoodDur and MeanBadDur are the mean sojourn times of the
	// Gilbert–Elliott chain (exponentially distributed, discretised to
	// slots).
	MeanGoodDur sim.Time
	MeanBadDur  sim.Time

	// BERGood and BERBad are the per-bit error probabilities in each state.
	BERGood float64
	BERBad  float64

	// InterferencePerHour is the Poisson arrival rate of interference
	// bursts; MeanInterferenceDur is their mean (exponential) duration;
	// BERInterference applies while a burst is active.
	InterferencePerHour float64
	MeanInterferenceDur sim.Time
	BERInterference     float64

	// DistanceBERSlope is the fractional increase in baseline BER per metre
	// of distance; kept small so distance stays a second-order effect, as
	// measured in the paper (33.3/37.1/29.6 % failure shares at 0.5/5/7 m).
	DistanceBERSlope float64
}

// DefaultConfig returns the calibrated channel parameters for a PANU at the
// given distance from the NAP.
func DefaultConfig(distanceM float64) Config {
	return Config{
		DistanceM:           distanceM,
		MeanGoodDur:         1800 * sim.Second,
		MeanBadDur:          60 * sim.Millisecond,
		BERGood:             2e-6,
		BERBad:              2e-2,
		InterferencePerHour: 2,
		MeanInterferenceDur: 250 * sim.Millisecond,
		BERInterference:     5e-2,
		DistanceBERSlope:    0.02,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.MeanGoodDur <= 0 || c.MeanBadDur <= 0:
		return fmt.Errorf("radio: non-positive sojourn times %v/%v", c.MeanGoodDur, c.MeanBadDur)
	case c.BERGood < 0 || c.BERGood > 1 || c.BERBad < 0 || c.BERBad > 1:
		return fmt.Errorf("radio: BER out of range good=%v bad=%v", c.BERGood, c.BERBad)
	case c.InterferencePerHour < 0:
		return fmt.Errorf("radio: negative interference rate %v", c.InterferencePerHour)
	case c.DistanceM < 0:
		return fmt.Errorf("radio: negative distance %v", c.DistanceM)
	default:
		return nil
	}
}

// Link is the error process for one NAP↔PANU RF link. Queries must arrive
// with non-decreasing slot numbers (transmissions are sequential in a
// piconet), which lets the chain advance lazily and deterministically.
type Link struct {
	cfg Config
	rng *rand.Rand

	bad       bool
	stateEnds int64 // slot at which the current sojourn ends

	nextInterference int64 // slot of the next interference arrival
	interferenceEnds int64 // slot at which the active burst ends (0 = none)

	lastQueried int64

	// Counters for diagnostics and tests.
	badSlots, goodSlots, bursts int64
}

// NewLink builds a link; the rng should be a dedicated stream, e.g.
// world.RNG("radio."+nodeName). Invalid configs panic: links are constructed
// at testbed build time, where a bad parameter is a programming error.
func NewLink(cfg Config, rng *rand.Rand) *Link {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	l := &Link{cfg: cfg, rng: rng}
	l.stateEnds = l.sampleSojourn(false)
	l.nextInterference = l.sampleInterferenceGap()
	return l
}

func (l *Link) sampleSojourn(bad bool) int64 {
	mean := l.cfg.MeanGoodDur
	if bad {
		mean = l.cfg.MeanBadDur
	}
	slots := int64(float64(mean.Slots()) * l.rng.ExpFloat64())
	if slots < 1 {
		slots = 1
	}
	return slots
}

func (l *Link) sampleInterferenceGap() int64 {
	if l.cfg.InterferencePerHour <= 0 {
		return 1 << 62
	}
	meanGap := float64(sim.Hour.Slots()) / l.cfg.InterferencePerHour
	gap := int64(meanGap * l.rng.ExpFloat64())
	if gap < 1 {
		gap = 1
	}
	return gap
}

// advance rolls the chain and interference process forward to slot.
func (l *Link) advance(slot int64) {
	if slot < l.lastQueried {
		panic(fmt.Sprintf("radio: non-monotonic slot query %d after %d", slot, l.lastQueried))
	}
	l.lastQueried = slot
	for l.stateEnds <= slot {
		start := l.stateEnds
		l.bad = !l.bad
		l.stateEnds = start + l.sampleSojourn(l.bad)
	}
	for l.nextInterference <= slot {
		start := l.nextInterference
		durSlots := int64(float64(l.cfg.MeanInterferenceDur.Slots()) * l.rng.ExpFloat64())
		if durSlots < 1 {
			durSlots = 1
		}
		end := start + durSlots
		if end > l.interferenceEnds {
			l.interferenceEnds = end
		}
		l.bursts++
		l.nextInterference = start + l.sampleInterferenceGap()
	}
}

// SlotBER reports the per-bit error probability in effect during the given
// baseband slot. The data plane queries BERRun instead; SlotBER is the
// per-slot definition that BERRun must reproduce.
//
// Test oracle: TestBERRunMatchesSlotBER.
func (l *Link) SlotBER(slot int64) float64 {
	l.advance(slot)
	ber := l.cfg.BERGood
	if l.bad {
		ber = l.cfg.BERBad
		l.badSlots++
	} else {
		l.goodSlots++
	}
	if slot < l.interferenceEnds && l.cfg.BERInterference > ber {
		ber = l.cfg.BERInterference
	}
	// Path-loss term: small multiplicative penalty with distance.
	ber *= 1 + l.cfg.DistanceBERSlope*l.cfg.DistanceM
	if ber > 1 {
		ber = 1
	}
	return ber
}

// BERRun reports the per-bit error probability in effect at slot from,
// together with the first slot (capped at to) at which the error process
// might change state: every slot in [from, until) sees exactly the BER that
// a SlotBER query would report for it. BERRun is the run-length fast path
// of the data plane: with mean good sojourns of ~2.9M slots it replaces
// millions of per-slot SlotBER queries with one query per channel state per
// attempt, drawing exactly the same RNG sequence as per-slot queries would
// (sojourns are sampled lazily at boundary crossings, which happen
// identically however the query points are spaced). A query that jumps
// several boundaries at once, as after an idle gap, samples every chain
// sojourn before any interference burst, so the draw order does depend on
// where such queries land: two data planes that must agree must query at
// the same slots. Unlike SlotBER it does not advance the good/bad slot
// diagnostics counters, which remain per-slot query counts.
func (l *Link) BERRun(from, to int64) (ber float64, until int64) {
	l.advance(from)
	until = to
	if l.stateEnds < until {
		until = l.stateEnds
	}
	if l.nextInterference < until {
		until = l.nextInterference
	}
	if from < l.interferenceEnds && l.interferenceEnds < until {
		until = l.interferenceEnds
	}
	ber = l.cfg.BERGood
	if l.bad {
		ber = l.cfg.BERBad
	}
	if from < l.interferenceEnds && l.cfg.BERInterference > ber {
		ber = l.cfg.BERInterference
	}
	ber *= 1 + l.cfg.DistanceBERSlope*l.cfg.DistanceM
	if ber > 1 {
		ber = 1
	}
	return ber, until
}

// Stats reports slot-state counters for diagnostics.
func (l *Link) Stats() (good, bad, bursts int64) {
	return l.goodSlots, l.badSlots, l.bursts
}
