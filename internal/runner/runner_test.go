package runner

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mimoctl/internal/telemetry"
)

// TestRunAllWorkerCounts: every worker count executes every job exactly
// once and fills every result slot, so a deterministic job body yields
// identical results regardless of parallelism.
func TestRunAllWorkerCounts(t *testing.T) {
	const n = 257 // deliberately not a multiple of any worker count
	for _, workers := range []int{0, 1, 2, 3, 4, 16, 300} {
		results := make([]int, n)
		var calls atomic.Int64
		jobs := make([]Job, n)
		for i := 0; i < n; i++ {
			i := i
			jobs[i] = Job{Label: fmt.Sprintf("job/%d", i), Run: func() error {
				calls.Add(1)
				results[i] = i * i
				return nil
			}}
		}
		if err := Run(jobs, workers, nil); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := calls.Load(); got != n {
			t.Fatalf("workers=%d: %d calls, want %d", workers, got, n)
		}
		for i, v := range results {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmptyPlan(t *testing.T) {
	if err := Run(nil, 4, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunSerialStopsAtFirstError: the reference semantics run in order
// and stop at the first failure; the skipped job leaves the queue.
func TestRunSerialStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	jobs := []Job{
		{Label: "a", Run: func() error { ran = append(ran, 0); return nil }},
		{Label: "b", Run: func() error { ran = append(ran, 1); return boom }},
		{Label: "c", Run: func() error { ran = append(ran, 2); return nil }},
	}
	reg := telemetry.NewRegistry()
	err := Run(jobs, 0, reg)
	var je *Error
	if !errors.As(err, &je) || je.Index != 1 || je.Label != "b" || !errors.Is(err, boom) {
		t.Fatalf("error = %v", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v; serial must stop at the first failure", ran)
	}
	checkDrained(t, reg, 2)
}

// TestRunParallelReportsLowestIndexError: with several failures the
// engine reports the lowest canonical index among them, not a
// scheduling-dependent one.
func TestRunParallelReportsLowestIndexError(t *testing.T) {
	var jobs []Job
	for i := 0; i < 64; i++ {
		i := i
		jobs = append(jobs, Job{Label: fmt.Sprintf("j%d", i), Run: func() error {
			if i >= 10 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		}})
	}
	err := Run(jobs, 4, nil)
	var je *Error
	if !errors.As(err, &je) {
		t.Fatalf("error = %v", err)
	}
	// Jobs 0..9 succeed. Indices are claimed in order and a claimed job
	// always runs, so job 10 is claimed before any later failure can
	// cancel the plan: the report is the serial path's, job 10.
	if je.Index != 10 {
		t.Fatalf("reported index %d, want 10 (the serial path's first failure)", je.Index)
	}
}

// TestRunParallelCancels: after a failure, not-yet-started jobs are
// skipped rather than executed to completion, and leave the queue.
func TestRunParallelCancels(t *testing.T) {
	const n = 1000
	var started atomic.Int64
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{Run: func() error {
			started.Add(1)
			if i == 0 {
				return errors.New("early failure")
			}
			time.Sleep(time.Millisecond)
			return nil
		}}
	}
	reg := telemetry.NewRegistry()
	if err := Run(jobs, 2, reg); err == nil {
		t.Fatal("expected error")
	}
	if got := started.Load(); got >= n {
		t.Fatalf("all %d jobs ran despite cancellation", got)
	}
	checkDrained(t, reg, float64(started.Load()))
}

// TestWorkStealing: a skewed plan (the front half slow) still finishes
// with every job run exactly once — the idle worker keeps claiming from
// the shared cursor while the other sits in a slow job — and the queue
// gauges drain to 0.
func TestWorkStealing(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	const n = 64
	var calls atomic.Int64
	var mu sync.Mutex
	seen := map[int]int{}
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{Run: func() error {
			calls.Add(1)
			mu.Lock()
			seen[i]++
			mu.Unlock()
			if i < n/2 {
				time.Sleep(500 * time.Microsecond)
			}
			return nil
		}}
	}
	if err := Run(jobs, 2, reg); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Fatalf("%d calls", calls.Load())
	}
	for i := 0; i < n; i++ {
		if seen[i] != 1 {
			t.Fatalf("job %d ran %d times", i, seen[i])
		}
	}
	checkDrained(t, reg, n)
}

// checkDrained: done jobs were counted, and the queue, running and
// worker gauges are back to 0.
func checkDrained(t *testing.T, reg *telemetry.Registry, done float64) {
	t.Helper()
	if got := metricValue(t, reg, "runner_jobs_done_total"); got != done {
		t.Fatalf("runner_jobs_done_total = %v, want %v", got, done)
	}
	for _, gauge := range []string{"runner_jobs_queued", "runner_jobs_running", "runner_workers"} {
		if v := metricValue(t, reg, gauge); v != 0 {
			t.Fatalf("%s = %v after the plan returned", gauge, v)
		}
	}
}

// metricValue digs a single un-labeled sample out of the exposition
// text; good enough for tests.
func metricValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var v float64
	found := false
	for _, line := range splitLines(sb.String()) {
		var got float64
		if n, _ := fmt.Sscanf(line, name+" %g", &got); n == 1 {
			v, found = got, true
		}
	}
	if !found {
		t.Fatalf("metric %s not exposed", name)
	}
	return v
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// TestJobSeedStable: the per-job seed is a pure function of identity,
// distinct across jobs, and never negative.
func TestJobSeedStable(t *testing.T) {
	a := JobSeed("fig11", "MIMO", "astar", 2016)
	if b := JobSeed("fig11", "MIMO", "astar", 2016); b != a {
		t.Fatalf("unstable: %d vs %d", a, b)
	}
	if a < 0 {
		t.Fatalf("negative seed %d", a)
	}
	seen := map[int64]string{}
	for _, exp := range []string{"fig11", "fig12"} {
		for _, arch := range []string{"MIMO", "Heuristic", "Decoupled"} {
			for _, wl := range []string{"astar", "milc", "namd"} {
				for _, s := range []int64{0, 1, 2016, -7} {
					id := fmt.Sprintf("%s/%s/%s/%d", exp, arch, wl, s)
					k := JobSeed(exp, arch, wl, s)
					if prev, dup := seen[k]; dup {
						t.Fatalf("seed collision: %s and %s -> %d", prev, id, k)
					}
					seen[k] = id
				}
			}
		}
	}
	// Field boundaries matter: ("ab","c") must differ from ("a","bc").
	if JobSeed("ab", "c", "w", 1) == JobSeed("a", "bc", "w", 1) {
		t.Fatal("field boundary collision")
	}
}

// BenchmarkRunnerWallClock demonstrates the engine's wall-clock win on
// latency-bound jobs, which shows even on a single CPU (the workers
// overlap job wait time; CPU-bound speedup additionally needs real
// cores — see BenchmarkExpAll at the repo root).
func BenchmarkRunnerWallClock(b *testing.B) {
	const n, jobSleep = 16, 4 * time.Millisecond
	for _, workers := range []int{0, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				jobs := make([]Job, n)
				for j := 0; j < n; j++ {
					jobs[j] = Job{Run: func() error { time.Sleep(jobSleep); return nil }}
				}
				if err := Run(jobs, workers, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPerJobScopedTimings: labeled jobs land in per-family telemetry
// scopes (label prefix up to the first '/'), alongside the pool-level
// aggregates.
func TestPerJobScopedTimings(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()

	jobs := []Job{
		{Label: "fig11/astar/MIMO", Run: func() error { return nil }},
		{Label: "fig11/namd/MIMO", Run: func() error { return nil }},
		{Label: "faults/sensor-nan/0", Run: func() error { return nil }},
		{Label: "plain", Run: func() error { return nil }},
	}
	if err := Run(jobs, 0, reg); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`runner_job_done_total{job="fig11"} 2`,
		`runner_job_done_total{job="faults"} 1`,
		`runner_job_done_total{job="plain"} 1`,
		`runner_job_family_seconds_total{job="fig11"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
