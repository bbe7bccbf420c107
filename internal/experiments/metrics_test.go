package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"mimoctl/internal/obs"
	"mimoctl/internal/telemetry"
)

// TestHarnessBindsAttachedRegistry: with a fleet attached, the harness
// binds every plant it builds, every controller it steps, its runner
// plans and its own counters to the fleet's registry, under the metric
// names and labels of GUIDE §10, without moving a result byte; the
// counts reconcile exactly. The trace-driven hierarchy's per-level
// cache counters are not among them: only a trace-mode plant, which no
// program builds, registers those. Once detached it binds nothing.
func TestHarnessBindsAttachedRegistry(t *testing.T) {
	const epochs = 600 // fig6's golden budget
	fig6 := goldenCase{name: "fig6", run: func() (Tabular, error) { return Fig6(DefaultSeed, epochs) }}
	want, err := os.ReadFile(goldenPath(fig6.name))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	SetObservability(obs.NewFleet(obs.Options{Registry: reg}))
	defer SetObservability(nil)
	if got := renderCSV(t, fig6, 2); !bytes.Equal(got, want) {
		t.Fatalf("attached output differs from the golden\n%s", firstDiff(got, want))
	}

	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	driven := counter("experiments_epochs_total")
	// A weight set whose design fails runs nothing; every other set runs
	// one plant for the budget plus its initial step.
	runs := driven / epochs
	if runs == 0 || driven%epochs != 0 {
		t.Fatalf("experiments_epochs_total = %d, want a positive multiple of %d", driven, epochs)
	}
	if got := counter("ctrl_steps_total"); got != driven {
		t.Errorf("ctrl_steps_total = %d, want experiments_epochs_total = %d", got, driven)
	}
	if got := counter("sim_epochs_total"); got != driven+runs {
		t.Errorf("sim_epochs_total = %d, want %d epochs + %d initial steps", got, driven, runs)
	}
	if got := counter("runner_jobs_done_total"); got != 4 {
		t.Errorf("runner_jobs_done_total = %d, want 4 (one job per weight set)", got)
	}

	var before strings.Builder
	if err := reg.WritePrometheus(&before); err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{
		"sim_epochs_total", "sim_epoch_step_seconds_count", "sim_ips_bips", "sim_power_watts",
		"sim_temp_celsius", "sim_l1_mpki", "sim_l2_mpki", "sim_energy_joules_total",
		"sim_instructions_total", "sim_dvfs_transitions_total", "sim_cache_resizes_total",
		"sim_rob_resizes_total", "sim_apply_invalid_total",
		"ctrl_steps_total", "ctrl_step_seconds_count", "lqg_step_seconds_count",
		`ctrl_innovation_abs_count{output="ips"}`, `ctrl_innovation_abs_count{output="power"}`,
		`ctrl_tracking_error_rel{output="ips"}`, `ctrl_tracking_error_rel{output="power"}`,
		"ctrl_target_changes_total", "ctrl_target_errors_total",
		"ctrl_step_errors_total", "ctrl_feedback_errors_total",
		"experiments_epochs_total", `experiments_figures_completed_total{figure="fig6"}`,
		"runner_jobs_queued", "runner_jobs_running", "runner_workers", "runner_jobs_done_total",
		"runner_job_seconds_count", "runner_worker_busy_seconds_total", "runner_worker_pool_seconds_total",
		`runner_job_done_total{job="fig6"}`,
	} {
		if !strings.Contains(before.String(), "\n"+sample+" ") {
			t.Errorf("sample %s missing from the attached registry", sample)
		}
	}
	for _, family := range []string{"sim_cache_accesses_total", "sim_cache_misses_total"} {
		if strings.Contains(before.String(), "\n"+family) {
			t.Errorf("the attached registry exports %s, which only a trace-mode plant writes", family)
		}
	}

	SetObservability(nil)
	if got := renderCSV(t, fig6, 2); !bytes.Equal(got, want) {
		t.Fatalf("detached output differs from the golden\n%s", firstDiff(got, want))
	}
	var after strings.Builder
	if err := reg.WritePrometheus(&after); err != nil {
		t.Fatal(err)
	}
	if after.String() != before.String() {
		t.Error("a run after SetObservability(nil) moved the registry")
	}
}

// TestBoundBanksCountAsProcessors: attached to a registry, Fig11 and
// TableEDK(k=1) at their golden budgets step each row of controllers on
// one bound lockstep bank. The output keeps its golden bytes, and the
// plant and harness counters read exactly what one bound processor per
// controller read before the banks (pinned).
func TestBoundBanksCountAsProcessors(t *testing.T) {
	for _, tc := range []struct {
		c    goldenCase
		want map[string]uint64
	}{
		// 23 applications × 3 architectures × 1200 epochs, and each
		// plant's initial step.
		{goldenCase{name: "fig11", run: func() (Tabular, error) { return Fig11(DefaultSeed, 1200) }}, map[string]uint64{
			"sim_epochs_total":           82869,
			"sim_dvfs_transitions_total": 7433,
			"sim_cache_resizes_total":    412,
			"sim_rob_resizes_total":      0,
			"sim_apply_invalid_total":    0,
			"experiments_epochs_total":   82800,
		}},
		// 23 applications × (Baseline + 3 architectures) × (400 warm +
		// 1200 measured epochs), and each plant's initial step.
		{goldenCase{name: "ed1", run: func() (Tabular, error) { return TableEDK(DefaultSeed, 1200, 1) }}, map[string]uint64{
			"sim_epochs_total":           147292,
			"sim_dvfs_transitions_total": 1657,
			"sim_cache_resizes_total":    124,
			"sim_rob_resizes_total":      23,
			"sim_apply_invalid_total":    0,
			"experiments_epochs_total":   147200,
		}},
	} {
		want, err := os.ReadFile(goldenPath(tc.c.name))
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		SetObservability(obs.NewFleet(obs.Options{Registry: reg}))
		got := renderCSV(t, tc.c, 2)
		SetObservability(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: attached output differs from the golden\n%s", tc.c.name, firstDiff(got, want))
		}
		for name, n := range tc.want {
			if v := reg.Counter(name, "").Value(); v != n {
				t.Errorf("%s: %s = %d, want %d", tc.c.name, name, v, n)
			}
		}
	}
}
