package runner

import (
	"mimoctl/internal/telemetry"
)

// Telemetry instrumentation for the engine. There is no process-wide
// binding: each Run drives the instruments of the registry it is
// given, and a nil or disabled registry leaves the plan uninstrumented.
//
// Worker utilization is derived, not exported directly:
//
//	utilization = runner_worker_busy_seconds_total /
//	              runner_worker_pool_seconds_total
//
// busy counts wall time inside Job.Run summed over workers; pool counts
// workers x pool wall time, so the ratio is the fraction of worker time
// spent executing jobs rather than waiting for the plan's last jobs.

type metrics struct {
	queued      telemetry.Gauge
	running     telemetry.Gauge
	workers     telemetry.Gauge
	done        telemetry.Counter
	jobSeconds  telemetry.Histogram
	busySeconds telemetry.FloatCounter
	poolSeconds telemetry.FloatCounter

	// reg parents the per-job scopes below; jobs are coarse (>= ms), so
	// the scope lookup on completion is noise, and the registry's scope
	// LRU bounds cardinality when labels are unbounded.
	reg *telemetry.Registry
}

// jobBuckets span one epoch-sim job (sub-millisecond at small budgets)
// to a full-length figure sweep.
var jobBuckets = []float64{
	0.0005, 0.002, 0.01, 0.05, 0.25, 1, 5, 30, 120,
}

// newMetrics binds one plan to reg (nil when reg is nil or disabled).
func newMetrics(reg *telemetry.Registry) *metrics {
	if !reg.Enabled() {
		return nil
	}
	return &metrics{
		reg:         reg,
		queued:      reg.Gauge("runner_jobs_queued", "experiment jobs waiting for a worker"),
		running:     reg.Gauge("runner_jobs_running", "experiment jobs currently executing"),
		workers:     reg.Gauge("runner_workers", "workers attached to active pools"),
		done:        reg.Counter("runner_jobs_done_total", "experiment jobs completed (success or failure)"),
		jobSeconds:  reg.Histogram("runner_job_seconds", "wall time of one experiment job", jobBuckets),
		busySeconds: reg.FloatCounter("runner_worker_busy_seconds_total", "summed wall time workers spent inside jobs"),
		poolSeconds: reg.FloatCounter("runner_worker_pool_seconds_total", "summed worker-seconds of pool lifetime (busy + idle)"),
	}
}

// jobDone records one completed job: the pool-level instruments plus a
// per-job-family scope (label job="<label up to the first '/'>", i.e.
// the experiment name for "fig11/astar"-style labels).
func (m *metrics) jobDone(label string, seconds float64) {
	m.done.Inc()
	m.jobSeconds.Observe(seconds)
	m.busySeconds.Add(seconds)
	if label != "" {
		scope := m.reg.Scope(telemetry.L("job", jobFamily(label)))
		scope.Counter("runner_job_done_total", "jobs completed in this family").Inc()
		scope.FloatCounter("runner_job_family_seconds_total", "summed wall time of this family's jobs").Add(seconds)
	}
}

// jobFamily is the label prefix up to the first '/'.
func jobFamily(label string) string {
	for i := 0; i < len(label); i++ {
		if label[i] == '/' {
			return label[:i]
		}
	}
	return label
}
