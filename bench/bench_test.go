package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mimoctl/internal/experiments"
)

// benchmarkFile is BENCHMARK.json's metric lists.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricTablesMatchBenchmarkFile keeps the metric tables the program
// reports and the lists in BENCHMARK.json identical, names and units.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	same := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(file), len(code))
		}
		for i := 0; i < len(file) && i < len(code); i++ {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestWorkloadsToyScale runs every workload traced at toy scale: every
// metric BENCHMARK.json names must be emitted, no check may fail, the
// end-to-end metrics must be non-zero, and the CPU shares must sum to at
// most 1.
func TestWorkloadsToyScale(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range workloadTable {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{
				workload: w.name, seed: experiments.DefaultSeed, trace: true,
				scale: toyScale, root: "..", out: t.TempDir(),
			}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("%d of %d checked operations failed", rep.failed, rep.attempted)
			}
			for _, m := range b.EndToEnd {
				if v, ok := rep.metrics[m.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v (emitted %v), want > 0", m.Name, v, ok)
				}
			}
			cpu := 0.0
			for _, m := range b.PerLayer {
				v, ok := rep.metrics[m.Name]
				if !ok {
					t.Errorf("per-layer metric %s not emitted", m.Name)
				}
				if strings.HasPrefix(m.Name, "cpu.") {
					cpu += v
				}
			}
			if !(cpu > 0 && cpu <= 1) {
				t.Errorf("cpu.* shares sum to %v, want (0, 1]", cpu)
			}
			for _, trace := range []bool{false, true} {
				cfg.trace = trace
				var out bytes.Buffer
				if err := emit(&out, cfg, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rec resultRecord
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				want := len(b.EndToEnd)
				if trace {
					want = len(b.PerLayer)
				}
				if !rec.Correct || len(rec.Metrics) != want {
					t.Errorf("trace=%v: correct=%v with %d metrics, want true with %d", trace, rec.Correct, len(rec.Metrics), want)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.out, w.name+".trace.jsonl")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompareVerdicts checks -compare's verdicts on synthetic logs.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "fast", "better": "lower", "bound": 0.05},
		{"name": "slow", "better": "lower", "bound": 0.05},
		{"name": "noisy", "better": "higher", "bound": 0.05},
		{"name": "flat", "better": "lower", "bound": 0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, scale float64) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			jitter := 1 + 0.001*float64(i%3)
			noise := 1 + 0.3*float64(i%2)
			rec := logRecord{Workload: "w", Seed: int64(i), resultRecord: resultRecord{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{
					"fast":  {Value: 100 * jitter / scale},
					"slow":  {Value: 100 * jitter * scale},
					"noisy": {Value: 100 * noise},
					"flat":  {Value: 100 * jitter},
				},
			}}
			if err := appendJSONLine(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 1), write("b.jsonl", 1.2)
	var out bytes.Buffer
	err := compareLogs(&out, spec, a, b)
	if err == nil {
		t.Fatal("a 20% slowdown was not reported as a regression")
	}
	verdict := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n")[1:] {
		if f := strings.Fields(line); len(f) > 2 {
			verdict[f[1]] = f[len(f)-1]
		}
	}
	for metric, want := range map[string]string{"fast": "gain", "slow": "regression", "noisy": "unresolved", "flat": "same"} {
		if verdict[metric] != want {
			t.Errorf("%s: verdict %q, want %q\n%s", metric, verdict[metric], want, out.String())
		}
	}
}
