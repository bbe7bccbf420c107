package telemetry

import (
	"strings"
	"testing"
)

func TestScopeAttachesLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Scope(L("loop", "a"))
	b := r.Scope(L("loop", "b"))
	a.Counter("loop_epochs_total", "epochs").Add(3)
	b.Counter("loop_epochs_total", "epochs").Add(5)
	// Nested scope: labels accumulate parent-first.
	a.Scope(L("phase", "recovery")).Gauge("loop_err", "err").Set(0.5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`loop_epochs_total{loop="a"} 3`,
		`loop_epochs_total{loop="b"} 5`,
		`loop_err{loop="a",phase="recovery"} 0.5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestScopeSharesInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Scope(L("loop", "a"))
	c1 := a.Counter("x_total", "x")
	c2 := r.Scope(L("loop", "a")).Counter("x_total", "x")
	c1.Inc()
	if c2.Value() != 1 {
		t.Fatal("same scope labels must resolve to the same instrument")
	}
	// The root-registered series with explicit labels is the same series.
	c3 := r.Counter("x_total", "x", L("loop", "a"))
	if c3.Value() != 1 {
		t.Fatal("scope labels and explicit labels must share identity")
	}
}

func TestScopeOnNilAndNopRegistries(t *testing.T) {
	var r *Registry
	s := r.Scope(L("loop", "a"))
	if s.Enabled() {
		t.Fatal("scoped nil registry must stay disabled")
	}
	s.Counter("x_total", "x").Inc() // must not panic
}

func TestScopeLRUEviction(t *testing.T) {
	r := NewRegistry()
	r.SetScopeLimit(2)
	for _, id := range []string{"a", "b", "c"} {
		r.Scope(L("loop", id)).Counter("loop_epochs_total", "epochs").Inc()
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, `loop="a"`) {
		t.Fatalf("least recently attached scope should be evicted:\n%s", out)
	}
	for _, want := range []string{`loop="b"`, `loop="c"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("recent scope %s missing:\n%s", want, out)
		}
	}

	// Re-attaching refreshes recency: touch b, add d -> c evicted.
	r.Scope(L("loop", "b"))
	r.Scope(L("loop", "d")).Counter("loop_epochs_total", "epochs").Inc()
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if strings.Contains(out, `loop="c"`) || !strings.Contains(out, `loop="b"`) || !strings.Contains(out, `loop="d"`) {
		t.Fatalf("LRU order wrong after refresh:\n%s", out)
	}
}

func TestScopeEvictionDropsEmptyFamilies(t *testing.T) {
	r := NewRegistry()
	r.SetScopeLimit(1)
	r.Scope(L("loop", "a")).Counter("only_scoped_total", "x").Inc()
	r.Scope(L("loop", "b")).Counter("other_total", "y").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "only_scoped_total") {
		t.Fatalf("family with every series evicted must disappear:\n%s", sb.String())
	}
}

// TestWritePrometheusDeterministicOrder is the regression test for the
// ordering contract: families sort by name and label sets sort by their
// canonical rendering, independent of registration order — scrape
// diffing relies on it.
func TestWritePrometheusDeterministicOrder(t *testing.T) {
	render := func(register func(r *Registry)) string {
		r := NewRegistry()
		register(r)
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	forward := render(func(r *Registry) {
		r.Counter("zz_total", "z").Inc()
		r.Counter("aa_total", "a", L("k", "v2")).Inc()
		r.Counter("aa_total", "a", L("k", "v1")).Inc()
		r.Gauge("mm", "m").Set(1)
	})
	reversed := render(func(r *Registry) {
		r.Gauge("mm", "m").Set(1)
		r.Counter("aa_total", "a", L("k", "v1")).Inc()
		r.Counter("aa_total", "a", L("k", "v2")).Inc()
		r.Counter("zz_total", "z").Inc()
	})
	if forward != reversed {
		t.Fatalf("exposition depends on registration order:\n--- forward\n%s--- reversed\n%s", forward, reversed)
	}
	ia := strings.Index(forward, "# HELP aa_total")
	im := strings.Index(forward, "# HELP mm")
	iz := strings.Index(forward, "# HELP zz_total")
	if !(ia < im && im < iz) {
		t.Fatalf("families not sorted by name:\n%s", forward)
	}
	if v1, v2 := strings.Index(forward, `k="v1"`), strings.Index(forward, `k="v2"`); v1 > v2 {
		t.Fatalf("label sets not sorted:\n%s", forward)
	}
}

func TestRegisterGoMetricsRenders(t *testing.T) {
	r := NewRegistry()
	RegisterGoMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"go_goroutines ",
		"go_memstats_heap_objects ",
		"go_memstats_gc_pause_total_seconds ",
	} {
		if !strings.Contains(out, "\n"+want) && !strings.HasPrefix(out, want) {
			t.Fatalf("go metrics exposition missing %q:\n%s", want, out)
		}
	}
}
