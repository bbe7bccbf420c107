package supervisor_test

import (
	"fmt"
	"math"

	"mimoctl/internal/core"
	"mimoctl/internal/experiments"
	"mimoctl/internal/sim"
	"mimoctl/internal/supervisor"
	"mimoctl/internal/workloads"
)

// Supervised controller runtime in action: wrap the paper's MIMO LQG
// controller in the supervisor (telemetry sanitization, divergence
// monitoring, apply retry, safe-state fallback), then hit the loop with
// two scripted failures — a dead sensor burst and a window of failed
// actuator writes — and watch the timeline: sanitization holds the
// estimator together, sustained failure drops the core to the paper's
// Table III baseline configuration, and once the fault clears the
// supervisor re-engages the formal controller and tracking returns to
// the targets.
func Example_supervisor() {
	const (
		epochs     = 6000
		nanFrom    = 1000 // sensors return NaN for both channels …
		nanUntil   = 1600 // … long enough to exhaust the staleness budget
		applyFrom  = 3500 // every knob write fails …
		applyUntil = 4000 // … long enough to exhaust the retry budget
	)
	mimo, _, err := experiments.DesignedMIMO(false, experiments.DefaultSeed)
	check(err)
	sup := supervisor.New(mimo, supervisor.Options{})
	sup.SetTargets(core.DefaultIPSTarget, core.DefaultPowerTarget)

	w, err := workloads.ByName("namd")
	check(err)
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), experiments.DefaultSeed)
	check(err)
	inj := sim.NewFaultInjector(proc, experiments.DefaultSeed+1).
		AddSensorFault(sim.SensorFault{
			Kind: sim.FaultNaN, Channel: sim.ChAll, From: nanFrom, Until: nanUntil,
		}).
		AddActuatorFault(sim.ActuatorFault{
			Kind: sim.ActError, From: applyFrom, Until: applyUntil,
		})

	fmt.Printf("supervised %s on %s, targets %.1f BIPS / %.1f W\n",
		mimo.Name(), w.Name(), core.DefaultIPSTarget, core.DefaultPowerTarget)
	fmt.Printf("scripted faults: NaN sensors [%d,%d), failed knob writes [%d,%d)\n\n",
		nanFrom, nanUntil, applyFrom, applyUntil)

	// Run the loop, logging every supervisor mode transition and a mean
	// true-output tracking error per 500-epoch window, and tallying the
	// faults the loop met: NaN sensor samples and failed knob writes.
	var sumP, sumI float64
	var sensorHits, applyErrors int
	n := 0
	mode := sup.Mode()
	tel := inj.Step()
	for k := 0; k < epochs; k++ {
		cfg := sup.Step(tel)
		err := inj.Apply(cfg)
		if err != nil {
			applyErrors++
		}
		sup.ObserveApply(cfg, err)
		if m := sup.Mode(); m != mode {
			fmt.Printf("epoch %4d: %v -> %v (config %v)\n", k, mode, m, cfg)
			mode = m
		}
		tel = inj.Step()
		for _, v := range []float64{tel.IPS, tel.PowerW} {
			if math.IsNaN(v) {
				sensorHits++
			}
		}
		sumP += math.Abs(tel.TruePowerW-core.DefaultPowerTarget) / core.DefaultPowerTarget
		sumI += math.Abs(tel.TrueIPS-core.DefaultIPSTarget) / core.DefaultIPSTarget
		n++
		if n == 500 {
			fmt.Printf("epoch %4d: mean err last 500 epochs: IPS %5.1f%%  power %5.1f%%  [%v]\n",
				k+1, 100*sumI/float64(n), 100*sumP/float64(n), mode)
			sumP, sumI, n = 0, 0, 0
		}
	}

	h := sup.Health()
	fmt.Printf("\nsupervisor health after %d epochs:\n", h.Epochs)
	fmt.Printf("  sanitized samples:    %d IPS, %d power\n", h.SanitizedIPS, h.SanitizedPower)
	fmt.Printf("  dead-sensor epochs:   %d\n", h.DeadSensorEpochs)
	fmt.Printf("  apply failures:       %d (%d retries)\n", h.ApplyFailures, h.ApplyRetries)
	fmt.Printf("  fallbacks:            %d (%d epochs in safe state %v)\n",
		h.Fallbacks, h.FallbackEpochs, sup.SafeConfig())
	fmt.Printf("  re-engagements:       %d\n", h.Reengagements)
	fmt.Printf("  plant fault counters: {SensorHits:%d ApplyErrors:%d StuckWrites:0 DelayedApplies:0 PlantDriftEpochs:0}\n",
		sensorHits, applyErrors)
	// Output:
	// supervised MIMO on namd, targets 2.5 BIPS / 2.0 W
	// scripted faults: NaN sensors [1000,1600), failed knob writes [3500,4000)
	//
	// epoch  500: mean err last 500 epochs: IPS   6.5%  power   4.9%  [engaged]
	// epoch 1000: mean err last 500 epochs: IPS   5.4%  power   5.1%  [engaged]
	// epoch 1099: engaged -> fallback (config f=1.3GHz L2/L1=(6,3) ROB=48)
	// epoch 1500: mean err last 500 epochs: IPS   3.3%  power   4.5%  [fallback]
	// epoch 1749: fallback -> engaged (config f=1.3GHz L2/L1=(6,3) ROB=48)
	// epoch 2000: mean err last 500 epochs: IPS   3.9%  power   4.7%  [engaged]
	// epoch 2500: mean err last 500 epochs: IPS   4.4%  power   4.0%  [engaged]
	// epoch 3000: mean err last 500 epochs: IPS   4.2%  power   3.8%  [engaged]
	// epoch 3500: mean err last 500 epochs: IPS   4.1%  power   4.1%  [engaged]
	// epoch 3504: engaged -> fallback (config f=1.3GHz L2/L1=(6,3) ROB=48)
	// epoch 4000: mean err last 500 epochs: IPS   3.2%  power   3.7%  [fallback]
	// epoch 4149: fallback -> engaged (config f=1.3GHz L2/L1=(6,3) ROB=48)
	// epoch 4500: mean err last 500 epochs: IPS   4.0%  power   4.0%  [engaged]
	// epoch 5000: mean err last 500 epochs: IPS   4.1%  power   4.1%  [engaged]
	// epoch 5500: mean err last 500 epochs: IPS   4.5%  power   4.1%  [engaged]
	// epoch 6000: mean err last 500 epochs: IPS   4.5%  power   4.2%  [engaged]
	//
	// supervisor health after 6000 epochs:
	//   sanitized samples:    600 IPS, 600 power
	//   dead-sensor epochs:   50
	//   apply failures:       500 (2 retries)
	//   fallbacks:            2 (1295 epochs in safe state f=1.3GHz L2/L1=(6,3) ROB=48)
	//   re-engagements:       2
	//   plant fault counters: {SensorHits:1200 ApplyErrors:500 StuckWrites:0 DelayedApplies:0 PlantDriftEpochs:0}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
