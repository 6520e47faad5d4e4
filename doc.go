// Package repro is a from-scratch Go reproduction of "Stay in your
// Lane: A NoC with Low-overhead Multi-packet Bypassing" (HPCA 2022): the
// FastPass flow-control mechanism, the cycle-accurate NoC substrate it
// runs on, seven baseline schemes, a coherence-protocol traffic engine,
// and a harness that regenerates every table and figure of the paper's
// evaluation.
//
// Run it through the commands in cmd/ or, in code, through internal/sim;
// the benchmarks in bench_test.go map one-to-one onto the paper's tables
// and figures. See README.md, DESIGN.md and EXPERIMENTS.md.
package repro
