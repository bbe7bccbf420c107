package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "quantile test", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Uniform 1..100 over 10-wide buckets: the interpolated quantiles
	// land within one bucket width of the exact order statistics.
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want) > 10 {
			t.Errorf("q%.2f = %.1f, want ~%.1f", tc.q, got, tc.want)
		}
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty snapshot quantile must be NaN")
	}
	r := NewRegistry()
	h := r.Histogram("edge_seconds", "edge", []float64{1, 2})
	h.Observe(100) // lands in +Inf bucket
	if got := h.Snapshot().Quantile(0.99); got != 2 {
		t.Errorf("+Inf-bucket quantile = %v, want highest finite bound 2", got)
	}
}

func TestPrometheusExposesQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("step_seconds", "step latency", []float64{0.1, 1}, L("arch", "mimo"))
	h.Observe(0.05)
	h.Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE step_seconds_quantile gauge",
		`step_seconds_quantile{arch="mimo",quantile="0.5"}`,
		`step_seconds_quantile{arch="mimo",quantile="0.95"}`,
		`step_seconds_quantile{arch="mimo",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusEmptyHistogramNoNaN pins the empty-histogram scrape
// behavior: a registered histogram with no observations must not leak
// "NaN" quantile samples into the exposition — the series (and, with
// no populated siblings, the whole _quantile family) is omitted until
// the first Observe.
func TestPrometheusEmptyHistogramNoNaN(t *testing.T) {
	r := NewRegistry()
	r.Histogram("cold_seconds", "never observed", []float64{0.1, 1})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "NaN") {
		t.Fatalf("empty histogram leaked NaN into the exposition:\n%s", out)
	}
	if strings.Contains(out, "cold_seconds_quantile") {
		t.Fatalf("empty histogram emitted a quantile family:\n%s", out)
	}
	// The histogram family itself still renders (zero-valued buckets are
	// meaningful).
	if !strings.Contains(out, "# TYPE cold_seconds histogram") {
		t.Fatalf("histogram family missing:\n%s", out)
	}

	// A single observation brings the quantile series back, NaN-free,
	// with all three quantiles collapsed onto the sample's bucket.
	r2 := NewRegistry()
	h := r2.Histogram("one_seconds", "single sample", []float64{0.1, 1})
	h.Observe(0.05)
	sb.Reset()
	if err := r2.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if strings.Contains(out, "NaN") {
		t.Fatalf("single-sample histogram leaked NaN:\n%s", out)
	}
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		if !strings.Contains(out, `one_seconds_quantile{quantile="`+q+`"}`) {
			t.Fatalf("missing quantile %s after one observation:\n%s", q, out)
		}
	}
}

// TestPrometheusMixedHistogramFamily pins the per-instrument skip: in
// a family where only some labeled instruments have samples, the
// populated ones expose quantiles and the empty ones are omitted.
func TestPrometheusMixedHistogramFamily(t *testing.T) {
	r := NewRegistry()
	warm := r.Histogram("mix_seconds", "mixed", []float64{0.1, 1}, L("loop", "warm"))
	r.Histogram("mix_seconds", "mixed", []float64{0.1, 1}, L("loop", "cold"))
	warm.Observe(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `mix_seconds_quantile{loop="warm",quantile="0.5"}`) {
		t.Fatalf("populated instrument lost its quantiles:\n%s", out)
	}
	if strings.Contains(out, `loop="cold",quantile`) {
		t.Fatalf("empty instrument leaked quantile series:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("NaN in mixed-family exposition:\n%s", out)
	}
}

// TestHistogramObserveAllocFree gates the hot path: quantiles are
// estimated at scrape time, so Observe stays allocation-free on both
// the live and the nop tier.
func TestHistogramObserveAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		reg  *Registry
	}{{"live", NewRegistry()}, {"nil", nil}} {
		h := tc.reg.Histogram("alloc_seconds", "alloc gate", []float64{0.1, 1, 10})
		allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.5) })
		if allocs != 0 {
			t.Errorf("%s: Observe allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}
