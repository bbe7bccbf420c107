package core_test

import (
	"fmt"

	"mimoctl/internal/core"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

// Quickstart: design a MIMO controller with the paper's Fig. 3 flow and
// use it to track a performance and a power target at the same time —
// the paper's first use case (§V "Tracking Multiple References").
func Example_quickstart() {
	// 1. Design the controller: black-box system identification on the
	//    paper's training applications, LQG synthesis with the Table III
	//    weights, validation, and robust stability analysis.
	ctrl, report, err := core.DesignMIMO(core.DesignSpec{
		Training:   trainingSet(),
		Validation: []sim.Workload{workload("h264ref"), workload("tonto")},
		Seed:       1,
	})
	check(err)
	fmt.Printf("designed MIMO controller: model dim %d, robustly stable: %v (peak gain %.2f)\n",
		report.Model.SS.Order(), report.RSA.RobustlyStable, report.RSA.PeakGain)

	// 2. Deploy it on a processor running namd, targeting 2.5 BIPS at
	//    2 W (the paper's §VII-B1 experiment).
	proc, err := sim.NewProcessor(workload("namd"), sim.DefaultProcessorOptions(), 42)
	check(err)
	ctrl.SetTargets(2.5, 2.0)

	tel := proc.Step()
	for epoch := 0; epoch < 3000; epoch++ {
		cfg := ctrl.Step(tel) // one controller invocation per 50 µs epoch
		check(proc.Apply(cfg))
		tel = proc.Step()
		if epoch%500 == 0 {
			fmt.Printf("epoch %4d: %s -> %.2f BIPS, %.2f W\n",
				epoch, cfg, tel.TrueIPS, tel.TruePowerW)
		}
	}
	fmt.Printf("final: %.2f BIPS (target 2.5), %.2f W (target 2.0)\n", tel.TrueIPS, tel.TruePowerW)
	// Output:
	// designed MIMO controller: model dim 4, robustly stable: true (peak gain 0.51)
	// epoch    0: f=1.9GHz L2/L1=(6,3) ROB=64 -> 2.02 BIPS, 2.55 W
	// epoch  500: f=1.2GHz L2/L1=(6,3) ROB=64 -> 2.50 BIPS, 1.80 W
	// epoch 1000: f=1.3GHz L2/L1=(6,3) ROB=64 -> 2.75 BIPS, 2.06 W
	// epoch 1500: f=1.2GHz L2/L1=(6,3) ROB=64 -> 2.69 BIPS, 2.01 W
	// epoch 2000: f=1.2GHz L2/L1=(6,3) ROB=64 -> 2.66 BIPS, 1.98 W
	// epoch 2500: f=1.2GHz L2/L1=(6,3) ROB=64 -> 2.55 BIPS, 1.87 W
	// final: 2.73 BIPS (target 2.5), 2.06 W (target 2.0)
}

// Time-varying tracking: the paper's second use case (§V). A high-level
// agent — here the QoE/battery scheduler of §VII-B2 — lowers the IPS and
// power references every 2000 epochs as a 1 J battery drains, and the
// MIMO controller re-tracks each new reference pair.
func Example_battery() {
	ctrl, _, err := core.DesignMIMO(core.DesignSpec{Training: trainingSet(), Seed: 1})
	check(err)
	proc, err := sim.NewProcessor(workload("astar"), sim.DefaultProcessorOptions(), 9)
	check(err)
	sched, err := core.NewBatteryScheduler(core.BatteryScheduleConfig{
		InitialIPS:   2.5,
		InitialPower: 2.0,
		TotalEnergyJ: 1.0, // the paper's total energy supply
	})
	check(err)
	ctrl.SetTargets(2.5, 2.0)

	// consumedJ is the energy the scheduler has accounted: each epoch's
	// telemetry it stepped on.
	var consumedJ float64
	tel := proc.Step()
	for epoch := 0; epoch < 10000; epoch++ {
		ipsRef, pRef, changed := sched.Step(tel)
		consumedJ += tel.EnergyJ
		if changed {
			fmt.Printf("epoch %5d: battery %4.0f%% -> new targets %.2f BIPS, %.2f W\n",
				epoch, 100*sched.Remaining(), ipsRef, pRef)
			ctrl.SetTargets(ipsRef, pRef)
		}
		cfg := ctrl.Step(tel)
		check(proc.Apply(cfg))
		tel = proc.Step()
		if epoch%2000 == 1999 {
			fmt.Printf("epoch %5d: attained %.2f BIPS, %.2f W at %s\n",
				epoch, tel.TrueIPS, tel.TruePowerW, cfg)
		}
	}
	fmt.Printf("energy consumed: %.3f J of 1 J\n", consumedJ)
	// Output:
	// epoch  1999: battery   79% -> new targets 2.24 BIPS, 1.79 W
	// epoch  1999: attained 1.93 BIPS, 1.62 W at f=1.2GHz L2/L1=(6,3) ROB=64
	// epoch  3999: battery   61% -> new targets 1.98 BIPS, 1.59 W
	// epoch  3999: attained 1.59 BIPS, 1.40 W at f=1.2GHz L2/L1=(6,3) ROB=64
	// epoch  5999: battery   44% -> new targets 1.74 BIPS, 1.39 W
	// epoch  5999: attained 1.66 BIPS, 1.29 W at f=0.9GHz L2/L1=(6,3) ROB=64
	// epoch  7999: battery   31% -> new targets 1.52 BIPS, 1.22 W
	// epoch  7999: attained 1.30 BIPS, 1.00 W at f=0.7GHz L2/L1=(6,3) ROB=64
	// epoch  9999: battery   20% -> new targets 1.31 BIPS, 1.05 W
	// epoch  9999: attained 1.22 BIPS, 0.99 W at f=0.8GHz L2/L1=(6,3) ROB=64
	// energy consumed: 0.805 J of 1 J
}

// Energy-delay optimization: the paper's third use case (§V "Fast
// Optimization Leveraging Tracking"). An Optimizer searches the
// (IPS, power) reference space to minimize E×D while the MIMO tracking
// controller realizes each candidate reference; the result is compared
// against the best static configuration.
func Example_energydelay() {
	training := trainingSet()

	// The Baseline architecture: profile every fixed configuration on
	// the training set, then pick the best under E×D (k = 2).
	prof, err := core.ProfileStatic(training, false, 300, 1)
	check(err)
	staticCfg, _, err := prof.Best(2)
	check(err)
	fmt.Printf("baseline (best static for E×D): %v\n", staticCfg)
	static, err := core.NewStaticController(staticCfg)
	check(err)

	// The MIMO architecture: tracking controller + optimizer.
	mimo, _, err := core.DesignMIMO(core.DesignSpec{Training: training, Seed: 1})
	check(err)
	opt, err := core.NewOptimizer(mimo, core.OptimizerConfig{K: 2})
	check(err)

	for _, name := range []string{"lbm", "gamess", "astar"} {
		base := runEDP(static, name, 2)
		adaptive := runEDP(opt, name, 2)
		fmt.Printf("%-8s E×D: baseline %.3e, MIMO %.3e  (%.0f%% reduction)\n",
			name, base, adaptive, 100*(1-adaptive/base))
	}
	// Output:
	// baseline (best static for E×D): f=1.9GHz L2/L1=(8,4) ROB=48
	// lbm      E×D: baseline 4.745e-18, MIMO 3.295e-18  (31% reduction)
	// gamess   E×D: baseline 2.527e-19, MIMO 2.534e-19  (-0% reduction)
	// astar    E×D: baseline 3.491e-19, MIMO 3.644e-19  (-4% reduction)
}

// runEDP drives a controller on the named workload and returns E×D per
// instruction over 10 000 epochs after a 400-epoch settle, summing each
// measured epoch's energy, instructions and time.
func runEDP(ctrl core.ArchController, name string, k int) float64 {
	proc, err := sim.NewProcessor(workload(name), sim.DefaultProcessorOptions(), 7)
	check(err)
	ctrl.Reset()
	tel := proc.Step()
	for i := 0; i < 400; i++ { // settle
		check(proc.Apply(ctrl.Step(tel)))
		tel = proc.Step()
	}
	var energyJ, instructions, seconds float64
	for i := 0; i < 10000; i++ {
		check(proc.Apply(ctrl.Step(tel)))
		tel = proc.Step()
		energyJ += tel.EnergyJ
		instructions += tel.Instructions
		seconds += sim.EpochSeconds
	}
	return sim.EnergyDelayProduct(energyJ, instructions, seconds, k)
}

func trainingSet() []sim.Workload {
	var training []sim.Workload
	for _, p := range workloads.TrainingSet() {
		training = append(training, p)
	}
	return training
}

func workload(name string) sim.Workload {
	w, err := workloads.ByName(name)
	check(err)
	return w
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
