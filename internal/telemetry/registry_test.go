package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steps_total", "steps")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	fc := r.FloatCounter("energy_joules_total", "energy")
	fc.Add(0.25)
	fc.Add(0.5)
	if got := fc.Value(); got != 0.75 {
		t.Fatalf("float counter = %v, want 0.75", got)
	}

	g := r.Gauge("temp_c", "temperature")
	g.Set(55.5)
	g.Add(-0.5)
	if got := g.Value(); got != 55 {
		t.Fatalf("gauge = %v, want 55", got)
	}

	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("histogram count = %d, want 5", s.Count)
	}
	// 0.05 and 0.1 (inclusive bound) -> bucket 0; 0.5 -> 1; 5 -> 2; 50 -> +Inf.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Sum != 55.65 {
		t.Fatalf("sum = %v, want 55.65", s.Sum)
	}
}

func TestRegisterSameIdentityReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("same identity should return the same instrument")
	}
	other := r.Counter("x_total", "x", L("k", "w"))
	if other.Value() != 0 {
		t.Fatal("different label value must be a distinct instrument")
	}
}

func TestRegisterTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on type mismatch")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on invalid name")
		}
	}()
	r.Counter("bad name", "x")
}

func TestNopAndNilRegistries(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry must not be enabled")
	}
	c := r.Counter("a_total", "a")
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nop counter must stay zero")
	}
	g := r.Gauge("g", "g")
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nop gauge must stay zero")
	}
	h := r.Histogram("h", "h", nil) // no panic despite empty buckets
	h.Observe(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nop exposition: err=%v len=%d", err, sb.Len())
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests served", L("code", "200"))
	c.Add(3)
	g := r.Gauge("mode", "supervisor mode")
	g.Set(1)
	r.GaugeFunc("answer", "computed", func() float64 { return 42 })
	h := r.Histogram("lat_seconds", "latency", []float64{0.5, 2})
	h.Observe(0.4)
	h.Observe(1)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP requests_total requests served",
		"# TYPE requests_total counter",
		`requests_total{code="200"} 3`,
		"# TYPE mode gauge",
		"mode 1",
		"answer 42",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.5"} 1`,
		`lat_seconds_bucket{le="2"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_sum 10.4",
		"lat_seconds_count 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestCounterFuncRendersLikeCounter: a count read at scrape time renders
// exactly as a write-through counter at the same count does, past 1e6
// where a float rendering turns to exponent form (3.84e+06).
func TestCounterFuncRendersLikeCounter(t *testing.T) {
	const n = 3_840_000
	r := NewRegistry()
	r.Scope(L("via", "counter")).Counter("epochs_total", "epochs").Add(n)
	r.Scope(L("via", "func")).CounterFunc("epochs_total", "epochs", func() uint64 { return n })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`epochs_total{via="counter"} 3840000`,
		`epochs_total{via="func"} 3840000`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x", L("k", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `x_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", sb.String())
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "n")
	fc := r.FloatCounter("f_total", "f")
	h := r.Histogram("h", "h", []float64{1, 2, 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				fc.Add(0.5)
				h.Observe(float64(i % 5))
				var sb strings.Builder
				if i%100 == 0 {
					_ = r.WritePrometheus(&sb)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if fc.Value() != 4000 {
		t.Fatalf("float counter = %v, want 4000", fc.Value())
	}
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", s.Count)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 10, 3)
	if exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Fatalf("exponential buckets = %v", exp)
	}
}

// TestGaugeSetHoldsLastValueBits checks that Set leaves exactly the last
// value's bits, including repeats (skipped stores), signed zeros and
// NaN, and interleaved with Add.
func TestGaugeSetHoldsLastValueBits(t *testing.T) {
	g := NewRegistry().Gauge("g", "g")
	negZero := math.Copysign(0, -1)
	for i, v := range []float64{1, 1, negZero, 0, 0, math.NaN(), math.NaN(), math.Inf(-1), 2.5} {
		g.Set(v)
		if got := g.Value(); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("step %d: Set(%v) then Value() = %v (%#x)", i, v, got, math.Float64bits(got))
		}
	}
	g.Add(1)
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("Set after Add: Value() = %v, want 3.5", got)
	}
}
