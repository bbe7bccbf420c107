package health

import (
	"math"
	"testing"
)

func TestChiSquaredSurvivalKnownValues(t *testing.T) {
	// Critical values from standard χ² tables.
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{0, 5, 1.0},
		{2, 2, math.Exp(-1)}, // k=2 is exactly exp(-x/2)
		{10, 2, math.Exp(-5)},
		{3.841, 1, 0.05},
		{9.488, 4, 0.05},
		{15.507, 8, 0.05},
		{20.090, 8, 0.01},
	}
	for _, c := range cases {
		got := chiSquaredSurvival(c.x, c.k)
		if math.Abs(got-c.want) > 2e-3 {
			t.Errorf("chiSquaredSurvival(%.3f, %d) = %.5f, want %.5f", c.x, c.k, got, c.want)
		}
	}
}

func TestChiSquaredSurvivalMonotone(t *testing.T) {
	prev := 1.1
	for x := 0.0; x <= 40; x += 0.5 {
		p := chiSquaredSurvival(x, 8)
		if p < 0 || p > 1 {
			t.Fatalf("p(%.1f) = %g out of [0,1]", x, p)
		}
		if p > prev+1e-12 {
			t.Fatalf("survival not monotone at x=%.1f: %g > %g", x, p, prev)
		}
		prev = p
	}
}

// lcg is a tiny deterministic generator for test noise (the package
// under test must not depend on math/rand behaviour).
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	// Map the top bits to (-0.5, 0.5); sums of 4 approximate a Gaussian.
	return float64(int64(*l>>11))/float64(1<<53) - 0.5
}

func (l *lcg) gaussish() float64 {
	return l.next() + l.next() + l.next() + l.next()
}

func TestLjungBoxWhiteVsCorrelated(t *testing.T) {
	g := lcg(1)
	white := make([]float64, 512)
	for i := range white {
		white[i] = g.gaussish()
	}
	if p := ljungBoxP(white, 8); p < 1e-3 {
		t.Errorf("white noise rejected: p = %g", p)
	}

	correlated := make([]float64, 512)
	for i := range correlated {
		correlated[i] = math.Sin(2*math.Pi*float64(i)/16) + 0.01*g.gaussish()
	}
	if p := ljungBoxP(correlated, 8); p > 1e-8 {
		t.Errorf("strongly periodic series accepted: p = %g", p)
	}
}

func TestLjungBoxDegenerateInputs(t *testing.T) {
	if p := ljungBoxP([]float64{1, 2, 3}, 8); p != 1 {
		t.Errorf("short series: p = %g, want 1", p)
	}
	if p := ljungBoxP(make([]float64, 64), 8); p != 1 {
		t.Errorf("constant series: p = %g, want 1", p)
	}
}
