// Package stats supplies the probability distributions, summary estimators
// and curve utilities used across the reproduction: Pareto idle times for the
// workload (per Crovella–Bestavros), power-law resource sizes for the
// realistic traffic models, binomial packet-type draws for the random
// workload, and the knee detection that picks the coalescence window in the
// sensitivity analysis of Figure 2.
//
// Two properties matter to the streaming/sweep planes built on top:
//
//   - Summary (Welford) and Histogram accumulate in a single pass with O(1)
//     state and support Merge, so per-shard accumulations combine into
//     campaign totals exactly (the shard-merge associativity tests pin
//     this), which is what keeps month-scale streaming aggregation and
//     checkpointable sweeps possible.
//   - Estimate/CI95 turn per-seed observations into mean ± 95 % confidence
//     intervals (Student-t for small seed counts), the cell type of every
//     sweep table.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Pareto is the (Type I) Pareto distribution with scale xm > 0 and shape
// alpha > 0. The paper models user passive off time as Pareto with shape
// 1.5, following Crovella–Bestavros.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws a Pareto variate by inversion.
func (p Pareto) Sample(r *rand.Rand) float64 {
	u := 1 - r.Float64() // in (0, 1]
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// BoundedPareto is a Pareto truncated to [L, H], the standard model for
// Web-transfer sizes (heavy tail, but no infinite documents).
type BoundedPareto struct {
	L, H  float64
	Alpha float64
}

// Sample draws by inversion of the truncated CDF.
func (p BoundedPareto) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	la := math.Pow(p.L, p.Alpha)
	ha := math.Pow(p.H, p.Alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Alpha)
	return math.Min(math.Max(x, p.L), p.H)
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (u Uniform) Sample(r *rand.Rand) float64 {
	return u.Lo + r.Float64()*(u.Hi-u.Lo)
}

// LogNormal is the log-normal distribution parameterised by the mean Mu and
// standard deviation Sigma of the underlying normal.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Binomial draws the number of successes in N independent trials with
// success probability P. The random workload uses it to pick among the six
// baseband packet types.
type Binomial struct {
	N int
	P float64
}

// SampleInt draws a binomial variate by direct simulation; N is small
// everywhere we use it (N=5 for packet types), so this is both exact and
// fast enough.
func (b Binomial) SampleInt(r *rand.Rand) int {
	k := 0
	for i := 0; i < b.N; i++ {
		if r.Float64() < b.P {
			k++
		}
	}
	return k
}

// UniformInt draws integers uniformly from [Lo, Hi] inclusive.
type UniformInt struct {
	Lo, Hi int
}

// SampleInt draws a uniform integer.
func (u UniformInt) SampleInt(r *rand.Rand) int {
	if u.Hi < u.Lo {
		panic(fmt.Sprintf("stats: UniformInt with Hi %d < Lo %d", u.Hi, u.Lo))
	}
	return u.Lo + r.IntN(u.Hi-u.Lo+1)
}

// Bernoulli reports true with probability P.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// WeightedChoice picks an index from weights proportionally. Weights must be
// non-negative with a positive sum; otherwise it panics, since a silent
// fallback would corrupt calibrated distributions.
func WeightedChoice(r *rand.Rand, weights []float64) int {
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("stats: negative or NaN weight %v at index %d", w, i))
		}
		total += w
	}
	if total <= 0 {
		panic("stats: WeightedChoice with non-positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
