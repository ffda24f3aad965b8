// Package repro is a from-scratch Go reproduction of "A Game-Theoretic
// Analysis of Cross-Chain Atomic Swaps with HTLCs" (Xu, Ackerer,
// Dubovitskaya; ICDCS 2021, arXiv:2011.11325).
//
// The library lives under internal/: the backward-induction solvers
// (internal/core), the probability and numerical substrates (internal/dist,
// internal/gbm, internal/mathx), the parameter-sweep engine
// (internal/sweep), the protocol substrate (internal/sim, internal/chain,
// internal/htlc, internal/oracle, internal/agent, internal/swapsim), an
// independent grid-DP game engine (internal/game), the related-work
// baseline (internal/baseline), the experiment harness
// (internal/figures, internal/plot, internal/stats), and the declarative
// scenario registry and batch runner (internal/scenario).
//
// Executables are under cmd/ (swapsolve, figures, swapsim, scenarios, swapd),
// and the walkthroughs are Example functions in the packages' example_test.go
// files. bench_test.go in this directory regenerates
// each paper artifact as a testing.B benchmark; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for measured-vs-paper results.
package repro
