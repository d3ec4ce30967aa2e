package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func TestParetoMoments(t *testing.T) {
	r := testRNG()
	p := Pareto{Xm: 10, Alpha: 2.5}
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(p.Sample(r))
	}
	want := p.Mean()
	if got := s.Mean(); math.Abs(got-want)/want > 0.05 {
		t.Errorf("Pareto mean = %v, want ~%v", got, want)
	}
	if s.Min() < p.Xm {
		t.Errorf("Pareto sample %v below scale %v", s.Min(), p.Xm)
	}
}

func TestParetoInfiniteMean(t *testing.T) {
	p := Pareto{Xm: 1, Alpha: 1.0}
	if !math.IsInf(p.Mean(), 1) {
		t.Error("alpha<=1 should have infinite mean")
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := testRNG()
	p := BoundedPareto{L: 100, H: 10000, Alpha: 1.2}
	for i := 0; i < 10000; i++ {
		x := p.Sample(r)
		if x < p.L || x > p.H {
			t.Fatalf("BoundedPareto sample %v outside [%v,%v]", x, p.L, p.H)
		}
	}
}

func TestBoundedParetoHeavyTail(t *testing.T) {
	r := testRNG()
	p := BoundedPareto{L: 1, H: 1e6, Alpha: 1.1}
	small, large := 0, 0
	for i := 0; i < 20000; i++ {
		if p.Sample(r) < 10 {
			small++
		} else {
			large++
		}
	}
	// With alpha=1.1, P(X<10) ~ 1-10^-1.1 ~ 0.92: most mass near L but a
	// real tail remains.
	if small < large {
		t.Errorf("tail heavier than body: small=%d large=%d", small, large)
	}
	if large == 0 {
		t.Error("no tail mass at all")
	}
}

func TestUniformRangeAndMean(t *testing.T) {
	r := testRNG()
	u := Uniform{Lo: 5, Hi: 15}
	var s Summary
	for i := 0; i < 100000; i++ {
		x := u.Sample(r)
		if x < 5 || x >= 15 {
			t.Fatalf("Uniform sample %v outside [5,15)", x)
		}
		s.Add(x)
	}
	if got := s.Mean(); math.Abs(got-10) > 0.1 {
		t.Errorf("Uniform mean = %v, want ~10", got)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := testRNG()
	l := LogNormal{Mu: math.Log(100), Sigma: 0.5}
	xs := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		xs = append(xs, l.Sample(r))
	}
	med := Percentile(xs, 50)
	if math.Abs(med-100)/100 > 0.05 {
		t.Errorf("LogNormal median = %v, want ~100", med)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := testRNG()
	b := Binomial{N: 5, P: 0.5}
	var s Summary
	for i := 0; i < 100000; i++ {
		k := b.SampleInt(r)
		if k < 0 || k > 5 {
			t.Fatalf("Binomial sample %d outside [0,5]", k)
		}
		s.Add(float64(k))
	}
	if got := s.Mean(); math.Abs(got-2.5) > 0.05 {
		t.Errorf("Binomial mean = %v, want ~2.5", got)
	}
	if got := s.Var(); math.Abs(got-1.25) > 0.05 {
		t.Errorf("Binomial var = %v, want ~1.25", got)
	}
}

func TestUniformIntBounds(t *testing.T) {
	r := testRNG()
	u := UniformInt{Lo: 1, Hi: 20}
	seen := map[int]bool{}
	for i := 0; i < 10000; i++ {
		k := u.SampleInt(r)
		if k < 1 || k > 20 {
			t.Fatalf("UniformInt sample %d outside [1,20]", k)
		}
		seen[k] = true
	}
	if len(seen) != 20 {
		t.Errorf("UniformInt covered %d values, want 20", len(seen))
	}
}

func TestUniformIntPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for Hi<Lo")
		}
	}()
	UniformInt{Lo: 5, Hi: 4}.SampleInt(testRNG())
}

func TestBernoulliEdges(t *testing.T) {
	r := testRNG()
	if Bernoulli(r, 0) {
		t.Error("Bernoulli(0) = true")
	}
	if !Bernoulli(r, 1) {
		t.Error("Bernoulli(1) = false")
	}
	hits := 0
	for i := 0; i < 100000; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	if f := float64(hits) / 100000; math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", f)
	}
}

func TestWeightedChoice(t *testing.T) {
	r := testRNG()
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[WeightedChoice(r, w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	for _, w := range [][]float64{{}, {0, 0}, {-1, 2}} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("want panic for weights %v", w)
				}
			}()
			WeightedChoice(testRNG(), w)
		}()
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic dataset is 32/7.
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-9 {
		t.Errorf("Var = %v, want %v", got, 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	// uint16 inputs keep values in a range where Welford arithmetic cannot
	// overflow; TTF/TTR observations live in a similar range.
	prop := func(a, b []uint16) bool {
		var all, left, right Summary
		for _, x := range a {
			all.Add(float64(x))
			left.Add(float64(x))
		}
		for _, x := range b {
			all.Add(float64(x))
			right.Add(float64(x))
		}
		left.Merge(right)
		return left.N() == all.N() &&
			math.Abs(left.Mean()-all.Mean()) < 1e-6*(1+math.Abs(all.Mean())) &&
			math.Abs(left.Var()-all.Var()) < 1e-6*(1+all.Var())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p, want float64
	}{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{1, 3})
	if math.Abs(out[0]-25) > 1e-9 || math.Abs(out[1]-75) > 1e-9 {
		t.Errorf("Normalize = %v, want [25 75]", out)
	}
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("Normalize zeros = %v", zero)
	}
}

// observations sums a histogram's bins.
func observations(h *Histogram) int {
	n := 0
	for _, c := range h.Counts() {
		n += c
	}
	return n
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.9, 10, 100} {
		h.Add(x)
	}
	counts := h.Counts()
	// -1,0,1.9 -> bin0; 2 -> bin1; 5 -> bin2; 9.9,10,100 -> bin4.
	want := []int{3, 1, 1, 0, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", counts, want)
		}
	}
	if observations(h) != 8 {
		t.Errorf("N = %d, want 8", observations(h))
	}
	shares := h.Shares()
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	if h.BinLabel(0) != "[0,2)" {
		t.Errorf("BinLabel(0) = %q", h.BinLabel(0))
	}
}

func TestHistogramPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for bad histogram spec")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestCurveKnee(t *testing.T) {
	// Piecewise curve with a sharp knee at x=330: steep drop before,
	// near-flat after — shaped like the paper's Figure 2 inset.
	var c Curve
	for x := 10.0; x <= 1000; x += 10 {
		var y float64
		if x <= 330 {
			y = 100 - (x-10)/320*80 // 100 -> 20
		} else {
			y = 20 - (x-330)/670*2 // 20 -> 18
		}
		c.Append(x, y)
	}
	knee, idx := c.Knee()
	if idx < 0 {
		t.Fatal("no knee found")
	}
	if knee < 250 || knee > 420 {
		t.Errorf("knee at %v, want near 330", knee)
	}
	if !c.Decreasing() {
		t.Error("test curve should be decreasing")
	}
}

func TestCurveKneeDegenerate(t *testing.T) {
	var c Curve
	if _, idx := c.Knee(); idx != -1 {
		t.Error("empty curve should report no knee")
	}
	c.Append(1, 5)
	if x, _ := c.Knee(); x != 1 {
		t.Errorf("1-point knee = %v", x)
	}
	c.Append(2, 5)
	c.Append(3, 5)
	if x, _ := c.Knee(); x != 1 {
		t.Errorf("flat-curve knee = %v, want first x", x)
	}
}

func TestCurveAppendPanicsOnNonIncreasingX(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for non-increasing x")
		}
	}()
	var c Curve
	c.Append(1, 1)
	c.Append(1, 2)
}
