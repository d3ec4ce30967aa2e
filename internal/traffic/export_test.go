package traffic

import (
	"math/rand/v2"
	"repro/internal/core"
	"repro/internal/stats"
)

// MeanBytes estimates the expected per-cycle volume for an app by Monte
// Carlo; used by tests to assert the Figure 3c volume ordering.
func MeanBytes(app core.AppKind, rng *rand.Rand, samples int) float64 {
	var s stats.Summary
	for i := 0; i < samples; i++ {
		s.Add(float64(Sample(app, rng, 1).Bytes))
	}
	return s.Mean()
}
