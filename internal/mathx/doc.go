// Package mathx provides the numerical substrate used by the swap-game
// solvers: fixed-order Gaussian quadrature (Legendre and Hermite rules),
// adaptive Simpson integration, bracketing root finding (Brent's method and
// multi-root scanning), one-dimensional optimisation (golden section and
// grid-refined search), and an algebra of disjoint interval sets used to
// represent continuation regions such as the collateral game's 𝒫_t2.
//
// Everything is implemented from scratch on top of the standard library so
// the repository has no external dependencies. The routines favour
// robustness over ultimate speed: the solvers in internal/core call them
// thousands of times per figure, which completes in milliseconds.
package mathx
