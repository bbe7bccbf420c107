// Energy-delay optimization: the paper's third use case (§V "Fast
// Optimization Leveraging Tracking"). An Optimizer searches the
// (IPS, power) reference space to minimize E×D while the MIMO tracking
// controller realizes each candidate reference; the result is compared
// against the best static configuration.
package main

import (
	"fmt"
	"log"

	"mimoctl/internal/core"
	"mimoctl/internal/sim"
	"mimoctl/internal/workloads"
)

func main() {
	var training []sim.Workload
	for _, p := range workloads.TrainingSet() {
		training = append(training, p)
	}

	// The Baseline architecture: profile every fixed configuration on
	// the training set, then pick the best under E×D (k = 2).
	prof, err := core.ProfileStatic(training, false, 300, 1)
	if err != nil {
		log.Fatal(err)
	}
	staticCfg, _, err := prof.Best(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline (best static for E×D): %v\n", staticCfg)

	// The MIMO architecture: tracking controller + optimizer.
	mimo, _, err := core.DesignMIMO(core.DesignSpec{Training: training, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	opt, err := core.NewOptimizer(mimo, core.OptimizerConfig{K: 2})
	if err != nil {
		log.Fatal(err)
	}

	for _, name := range []string{"lbm", "gamess", "astar"} {
		base := runEDP(mustStatic(staticCfg), name, 2)
		adaptive := runEDP(opt, name, 2)
		fmt.Printf("%-8s E×D: baseline %.3e, MIMO %.3e  (%.0f%% reduction)\n",
			name, base, adaptive, 100*(1-adaptive/base))
	}
}

// runEDP drives a controller on the named workload and returns E×D per
// instruction.
func runEDP(ctrl core.ArchController, workload string, k int) float64 {
	w, err := workloads.ByName(workload)
	if err != nil {
		log.Fatal(err)
	}
	proc, err := sim.NewProcessor(w, sim.DefaultProcessorOptions(), 7)
	if err != nil {
		log.Fatal(err)
	}
	ctrl.Reset()
	tel := proc.Step()
	for i := 0; i < 400; i++ { // settle
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			log.Fatal(err)
		}
		tel = proc.Step()
	}
	proc.ResetTotals()
	for i := 0; i < 10000; i++ {
		cfg := ctrl.Step(tel)
		if err := proc.Apply(cfg); err != nil {
			log.Fatal(err)
		}
		tel = proc.Step()
	}
	e, n, s := proc.Totals()
	return sim.EnergyDelayProduct(e, n, s, k)
}

func mustStatic(cfg sim.Config) core.ArchController {
	s, err := core.NewStaticController(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return s
}
