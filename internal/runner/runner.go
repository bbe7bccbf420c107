// Package runner is the parallel experiment engine: it executes a plan
// of independent jobs on a bounded worker pool and leaves every result
// exactly where the serial path would have put it.
//
// The determinism contract is structural, not scheduled: a Job must be
// self-contained (own controller clone, own processor, own RNG seeded
// from the job's fixed inputs) and must write only to its own
// pre-assigned result slot. Under that contract the worker count can
// never change a result, only the wall-clock time, so serial (workers
// <= 0) and parallel runs produce byte-identical experiment output.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mimoctl/internal/telemetry"
)

// Job is one independent unit of an experiment plan, typically one
// (controller, workload, seed) run. Run must not share mutable state
// with any other job of the same plan.
type Job struct {
	// Label identifies the job in telemetry and errors, e.g.
	// "fig11/astar/MIMO".
	Label string
	// Run executes the job. The result goes into the slot the plan
	// builder captured in the closure, keyed by the job's canonical
	// index — never by completion order.
	Run func() error
}

// Error reports the first (lowest canonical index) job failure of a
// plan.
type Error struct {
	Index int
	Label string
	Err   error
}

func (e *Error) Error() string {
	if e.Label == "" {
		return e.Err.Error()
	}
	return e.Label + ": " + e.Err.Error()
}

// Unwrap exposes the job's underlying error.
func (e *Error) Unwrap() error { return e.Err }

// DefaultWorkers is the worker count the CLIs use when none is given:
// one worker per CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// Run executes every job of the plan and returns the failure with the
// lowest canonical index, or nil. reg, when enabled, receives the
// plan's runner_* instruments; nil runs it uninstrumented.
//
// workers <= 0 runs the plan serially on the calling goroutine, in
// order, stopping at the first error — the reference semantics.
// workers >= 1 runs the plan on that many goroutines, each claiming the
// next unclaimed index from one shared cursor; remaining jobs are
// cancelled once a job fails. Indices are claimed in order and a
// claimed job always runs, so every job below a failure has run and the
// reported failure is the one the serial path reports. Because jobs
// are independent and results are keyed by index, both modes produce
// identical results on success.
func Run(jobs []Job, workers int, reg *telemetry.Registry) error {
	if len(jobs) == 0 {
		return nil
	}
	m := newMetrics(reg)
	if workers <= 0 || len(jobs) == 1 {
		return runSerial(jobs, m)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	return runPool(jobs, workers, m)
}

func runSerial(jobs []Job, m *metrics) error {
	if m != nil {
		m.queued.Add(float64(len(jobs)))
	}
	for i := range jobs {
		d, err := runJob(&jobs[i], m)
		if m != nil {
			m.poolSeconds.Add(d) // serial: the one "worker" is always busy
		}
		if err != nil {
			if m != nil {
				m.queued.Add(float64(-(len(jobs) - i - 1)))
			}
			return &Error{Index: i, Label: jobs[i].Label, Err: err}
		}
	}
	return nil
}

// runJob runs one claimed job and returns its wall time in seconds.
func runJob(job *Job, m *metrics) (float64, error) {
	start := time.Now()
	if m != nil {
		m.queued.Add(-1)
		m.running.Add(1)
	}
	err := job.Run()
	d := time.Since(start).Seconds()
	if m != nil {
		m.running.Add(-1)
		m.jobDone(job.Label, d)
	}
	return d, err
}

func runPool(jobs []Job, workers int, m *metrics) error {
	poolStart := time.Now()
	if m != nil {
		m.queued.Add(float64(len(jobs)))
		m.workers.Add(float64(workers))
	}
	var (
		next      atomic.Int64 // the next unclaimed index
		cancelled atomic.Bool
		errMu     sync.Mutex
		firstErr  *Error
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !cancelled.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				if _, err := runJob(&jobs[i], m); err != nil {
					cancelled.Store(true)
					errMu.Lock()
					if firstErr == nil || i < firstErr.Index {
						firstErr = &Error{Index: i, Label: jobs[i].Label, Err: err}
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if m != nil {
		m.workers.Add(float64(-workers))
		m.poolSeconds.Add(time.Since(poolStart).Seconds() * float64(workers))
		// Jobs skipped by cancellation are no longer queued.
		if claimed := int(next.Load()); claimed < len(jobs) {
			m.queued.Add(float64(-(len(jobs) - claimed)))
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return nil
}
