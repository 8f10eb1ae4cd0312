// Package repro reproduces Ge, Feng & Cameron, "Performance-constrained
// Distributed DVS Scheduling for Scientific Applications on Power-aware
// Clusters" (SC'05) as a self-contained Go library: a deterministic
// discrete-event simulation of the NEMO power-aware cluster, a simulated
// MPI, phase-structured NAS Parallel Benchmark workload models, the three
// distributed DVS scheduling strategies (CPUSPEED daemon, EXTERNAL,
// INTERNAL), the PowerPack measurement framework, and a harness that
// regenerates every table and figure of the paper's evaluation.
//
// Entry points:
//
//   - internal/core — run a workload under a strategy, get energy & delay;
//   - cmd/reproduce — regenerate all paper artifacts with paper deltas;
//     its subcommands grid, run and power sweep parameter grids with CSV
//     output, run one benchmark under one strategy, and run one
//     instrumented benchmark with its power profile;
//   - cmd/calibrate — model-vs-paper calibration report;
//   - examples/     — five runnable walk-throughs.
//
// The benchmarks in bench_test.go time the regeneration of each artifact
// (go test -bench=. -benchmem).
package repro
