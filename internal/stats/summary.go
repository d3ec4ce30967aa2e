package stats

import (
	"math"
)

// Summary accumulates running statistics over a stream of observations using
// Welford's algorithm, so single-pass accumulation stays numerically stable
// over the hundreds of thousands of TTF/TTR samples a campaign produces.
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the summary.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N reports the number of observations.
func (s *Summary) N() int { return s.n }

// Mean reports the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Sum reports the total of the observations (mean times count).
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// Var reports the unbiased sample variance (0 when fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev reports the unbiased sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Var()) }

// Min reports the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max reports the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Merge folds another summary into s, as if all of o's observations had been
// Added to s. It lets per-node summaries combine into campaign totals.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := float64(s.n + o.n)
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/n
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/n
	s.mean, s.m2 = mean, m2
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Normalize scales xs so it sums to 100, returning percentage shares.
// An all-zero input returns a zero slice of the same length.
func Normalize(xs []float64) []float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	out := make([]float64, len(xs))
	if total == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / total * 100
	}
	return out
}
