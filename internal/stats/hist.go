package stats

import (
	"fmt"
	"math"
)

// Histogram buckets observations into fixed-width bins over [Lo, Hi); values
// outside the range land in saturating edge bins. It backs the text-mode
// "figures" of the btrepro output and the streaming Figure 3b view.
type Histogram struct {
	Lo, Hi float64
	bins   []int
}

// NewHistogram creates a histogram with nbins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: bad histogram spec [%v,%v) x %d", lo, hi, nbins))
	}
	return &Histogram{Lo: lo, Hi: hi, bins: make([]int, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.bins)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
}

// Merge folds another histogram into h, as if all of o's observations had
// been Added to h. Both histograms must share the same binning; per-shard
// histograms merge into campaign totals with it.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.bins) != len(o.bins) {
		panic(fmt.Sprintf("stats: merging histograms with different binning: [%v,%v)x%d vs [%v,%v)x%d",
			h.Lo, h.Hi, len(h.bins), o.Lo, o.Hi, len(o.bins)))
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
}

// Counts returns a copy of the per-bin counts.
func (h *Histogram) Counts() []int {
	out := make([]int, len(h.bins))
	copy(out, h.bins)
	return out
}

// Shares returns per-bin percentages of the total.
func (h *Histogram) Shares() []float64 {
	xs := make([]float64, len(h.bins))
	for i, c := range h.bins {
		xs[i] = float64(c)
	}
	return Normalize(xs)
}

// BinLabel renders the half-open interval covered by bin i.
func (h *Histogram) BinLabel(i int) string {
	w := (h.Hi - h.Lo) / float64(len(h.bins))
	return fmt.Sprintf("[%.0f,%.0f)", h.Lo+float64(i)*w, h.Lo+float64(i+1)*w)
}

// Curve is a sampled monotone-x function y = f(x), used by the coalescence
// sensitivity analysis (tuple count versus window size).
type Curve struct {
	X, Y []float64
}

// Append adds a point; x values must arrive in strictly increasing order.
func (c *Curve) Append(x, y float64) {
	if n := len(c.X); n > 0 && x <= c.X[n-1] {
		panic(fmt.Sprintf("stats: curve x not increasing: %v after %v", x, c.X[n-1]))
	}
	c.X = append(c.X, x)
	c.Y = append(c.Y, y)
}

// Len reports the number of points.
func (c *Curve) Len() int { return len(c.X) }

// Knee locates the "knee" of a decreasing curve: the point that maximises
// the distance to the chord joining the first and last points (the standard
// Kneedle construction). The paper's sensitivity analysis picks the window
// at the beginning of the knee of tuples-vs-window; this function is what
// btrepro uses to recover the 330 s choice automatically.
func (c *Curve) Knee() (x float64, idx int) {
	n := len(c.X)
	if n == 0 {
		return 0, -1
	}
	if n < 3 {
		return c.X[0], 0
	}
	// Normalise both axes to [0,1] so the chord distance is scale-free.
	x0, x1 := c.X[0], c.X[n-1]
	var yMin, yMax float64 = math.Inf(1), math.Inf(-1)
	for _, y := range c.Y {
		yMin = math.Min(yMin, y)
		yMax = math.Max(yMax, y)
	}
	if x1 == x0 || yMax == yMin {
		return c.X[0], 0
	}
	bestD, bestI := math.Inf(-1), 0
	for i := 0; i < n; i++ {
		nx := (c.X[i] - x0) / (x1 - x0)
		ny := (c.Y[i] - yMin) / (yMax - yMin)
		// Distance from (nx,ny) to the chord y = 1 - x (decreasing curve
		// normalised corners (0,1)..(1,0)), up to the constant 1/sqrt(2).
		d := 1 - nx - ny
		if d > bestD {
			bestD, bestI = d, i
		}
	}
	return c.X[bestI], bestI
}

// Decreasing reports whether the curve's y values are non-increasing, an
// invariant of the tuple-count-versus-window curve that tests assert.
//
// Test seam: coalesce's TestSensitivityCurveShapeAndKnee and the root
// TestSensitivityCurveShape.
func (c *Curve) Decreasing() bool {
	for i := 1; i < len(c.Y); i++ {
		if c.Y[i] > c.Y[i-1] {
			return false
		}
	}
	return true
}
