// Package mimoctl reproduces "Using Multiple Input, Multiple Output
// Formal Control to Maximize Resource Efficiency in Architectures"
// (Pothukuchi, Ansari, Voulgaris, Torrellas — ISCA 2016): MIMO LQG
// controllers that tune processor knobs (DVFS frequency, cache ways,
// ROB size) to control power and performance in a coordinated way.
//
// The library is organized as internal packages — see DESIGN.md for the
// full inventory — with runnable entry points under cmd/, walkthroughs
// as testable examples (Example_* in the packages' example_test.go
// files), the end-to-end benchmark under bench/, and micro-benchmarks
// next to the packages they measure:
//
//   - internal/mat, internal/lti, internal/sysid, internal/lqg,
//     internal/robust: the numerical control stack (linear algebra,
//     state-space systems, black-box identification, LQG synthesis,
//     robust stability analysis);
//   - internal/sim, internal/workloads: the processor/power simulator
//     substrate and SPEC CPU2006-like workload profiles;
//   - internal/core: the paper's contribution — the MIMO architecture
//     controller, the Fig. 3 design flow, the E·D^k optimizer, and the
//     battery/QoE reference scheduler;
//   - internal/heuristic, internal/decoupled: the paper's comparison
//     architectures;
//   - internal/experiments: one runner per evaluation figure/table.
package mimoctl
