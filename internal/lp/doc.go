// Package lp implements a linear-programming solver sufficient for the
// resource-allocation formulations used throughout this repository: cluster
// scheduling (max-min fairness, makespan), traffic engineering (max total
// flow, max concurrent flow), and the LP relaxations used by the MILP
// branch-and-bound in package milp.
//
// The algorithm is a two-phase bounded-variable revised simplex:
//
//   - The model is standardized to  min cᵀx  s.t.  Ax = b,  l ≤ x ≤ u  by
//     appending one slack column per row (equality rows get a slack fixed to
//     [0,0] so the basis machinery stays uniform).
//   - Phase 1 starts from an all-artificial basis and minimizes the sum of
//     infeasibilities; phase 2 optimizes the real objective.
//   - The constraint matrix is stored column-wise and sparse; the basis is
//     maintained behind the basisFactor interface by one of two backends
//     (see below), selected with Options.Backend.
//   - Pricing is Dantzig (most-negative reduced cost) with an automatic
//     switch to Bland's rule after a run of degenerate pivots, which
//     guarantees termination; Options.Devex enables devex pricing. The dual
//     phase prices its leaving rows with dual devex reference weights.
//   - The ratio tests — primal and dual — are Harris-style two-pass bounded
//     tests: the first pass finds the loosest step admissible with every
//     competing bound relaxed by the feasibility tolerance, the second takes
//     the largest-magnitude pivot that fits under it, trading a
//     tolerance-sized excursion for pivot quality on the degenerate chains
//     allocation LPs produce. Bland mode keeps the strict one-pass rule its
//     termination guarantee is proved for. The primal test also handles
//     variable bound flips, so boxed variables (the common case in
//     allocation problems, where 0 ≤ A ≤ 1) never enter the basis just to
//     move between their bounds.
//
// # Basis backends
//
// SparseLU (the default) factorizes the basis as P·B·Q = L·U with
// left-looking sparse Gaussian elimination: columns are processed
// sparsest-first and the pivot row is chosen by threshold partial pivoting
// (candidates within 10× of the column's largest magnitude, preferring the
// row with the fewest nonzeros) — an approximate Markowitz ordering that
// keeps fill low on the extremely sparse bases granular allocation LPs
// produce. The factorization is Gilbert–Peierls style: each column's
// triangular solve visits only the earlier elimination steps its nonzeros
// reach, so a refactorization costs time proportional to the factor's
// nonzeros and flops rather than m² per basis. Each simplex pivot is then
// absorbed into the stored U in place with a Forrest–Tomlin update: the
// entering column becomes a spike, the spiked column rotates to the last
// triangular position, and the leaving row is eliminated by a recorded row
// transformation — so ftran/btran stay sparse triangular solves through
// factors whose size tracks actual fill, not pivot count.
//
// Refactorization is scheduled adaptively, not just by the fixed
// Options.ReinvertEvery cadence: SparseLU rebuilds when U's fill grows
// past a budget tied to its post-factorization size, or when a sampled
// ftran residual ‖B·w − a_q‖∞ drifts past tolerance — measured numerical
// trouble, caught before it can leak into pivot decisions. An update whose
// elimination multiplier or final diagonal is too extreme to absorb stably
// is rejected outright and answered with a refactorization from scratch.
// The update/reject/refactor-reason counters export through Options.Obs
// (pop_lp_ft_updates_total, pop_lp_ft_rejects_total,
// pop_lp_drift_refactors_total, pop_lp_fill_refactors_total).
//
// Dense is the reference backend: an explicit dense m×m basis inverse
// updated by rank-1 eta transformations and rebuilt by Gauss-Jordan
// elimination with partial pivoting. It is O(m²) per iteration and O(m³)
// per rebuild, but numerically transparent; the cross-backend equivalence
// suite (equivalence_test.go) holds both backends to identical statuses and
// objectives within 1e-6 on fixture and randomized models.
//
// Fallback policy: if the sparse factorization finds the basis singular or
// rejects an update pivot, the solve refactorizes; if that fails it switches
// to the dense backend mid-solve; and if a SparseLU solve still ends in
// numerical failure, SolveWithOptions re-solves once from scratch with
// Dense. AutoBackend (the Options zero value) resolves to SparseLU, so
// every caller gets the fast path without opting in; SetDefaultBackend
// rebinds it process-wide (cmd/popbench -backend).
//
// # Warm starts
//
// Every optimal solve exports a combinatorial Basis snapshot
// (Solution.Basis). A Model keeps its last optimal basis and seeds its next
// solve from it; Model.SetBasis installs any other snapshot (a branch-and-
// bound node's parent basis, or a basis from a solve of a similar
// problem). Problem solves always start cold. The warm path rebuilds primal
// values from the snapshot (repairing the basic count if the shape drifted),
// refactorizes, and — when the stale basis is no longer primal feasible —
// runs a bound-shifting phase 1: out-of-bounds columns get their bounds
// temporarily relaxed to the interval between current value and violated
// bound plus a unit cost pushing them home, so ordinary phase-2 pivots
// restore feasibility without the all-artificial restart. A snapshot that
// is the wrong shape, singular, or unrepairable is silently discarded for a
// cold phase 1 (Solution.WarmStarted reports which path ran); warm starts
// therefore change solve speed, never solve outcomes. This is what the
// online engine (package online) leans on to re-solve drifting sub-problems
// round after round.
//
// # Persistent models: the Model lifecycle
//
// Problem is a one-shot builder: construct, standardize, solve, discard.
// Model is the persistent alternative for the mutate-and-resolve regime the
// online engines live in. Its lifecycle:
//
//  1. Build once, with the same builder API as Problem (NewModel, or
//     NewModelFromProblem to wrap an existing build; helper code can target
//     the shared Builder interface).
//  2. Solve. The standardized equality form is built on first solve and
//     cached; the optimal basis is stored inside the model.
//  3. Mutate in place: SetCoeff / SetRHS / SetBounds / SetObjectiveCoeff
//     patch both the builder state and the cached standardized form
//     directly (no re-standardize), and all setters no-op on unchanged
//     values so the delta classification below stays exact. Structural
//     edits — AddVariable/AddConstraint and the block operations
//     InsertVariables / RemoveVariables / InsertConstraint /
//     RemoveConstraints — mark the standardized form for a lazy rebuild and
//     splice the stored basis statuses in lockstep, so surviving blocks
//     keep their warm information across membership changes.
//  4. Re-solve. The model classifies everything that happened since the
//     last optimal basis and picks the cheapest start that is still sound
//     (see the dual simplex section). Coefficient deltas first pass a
//     hostile-refresh check with two complementary signals: broad row churn
//     (a quarter or more of the constraint rows had coefficients rewritten,
//     so the repair cost approaches a cold start no matter what the reduced
//     costs say), and optimality rotation (a strided sample of nonbasic
//     columns priced against the previous solve's duals shows a majority
//     flipped — the signature of a global input rotation, like an
//     equal-share denominator shift, even when few entries changed). Either
//     drops the basis rather than pay a warm repair that costs more than
//     the cold phase 1 it replaces (booked as
//     pop_lp_warm_hostile_drops_total). Whatever path runs, the
//     outcome equals a cold solve of a fresh build of the current state —
//     the mutation-equivalence suite (model_test.go) holds mutate==rebuild
//     to 1e-6 over randomized delta chains.
//
// A Model is not safe for concurrent use. Options.Scale solves a clone of
// the cached form (scaling rescales the matrix in place), trading the
// incremental-build saving for conditioning on that solve.
//
// Basis() and SetBasis() expose the stored snapshot for search-tree use:
// take the basis at one point, keep mutating and re-solving down one path,
// then jump back by re-installing the snapshot under different bounds. The
// branch and bound in package milp runs its whole tree this way — each open
// node carries its parent's snapshot, and bound-only branching keeps every
// node re-solve on the dual path below.
//
// # Dual simplex
//
// Perturbing only b, l, or u leaves reduced costs untouched, so the
// previous optimal basis stays dual feasible while its basic values drift
// out of bounds. The dual simplex phase (dual.go) exploits this: it
// repeatedly drives the most bound-violating basic variable out of the
// basis onto its violated bound, entering the nonbasic column whose
// reduced-cost ratio keeps every column dual feasible — typically settling
// a load or capacity shift in a handful of pivots where the primal warm
// path would run its bound-shifting repair phase and the cold path a full
// phase 1. Leaving rows are ranked violation²/weight under dual devex
// reference weights, and the entering column comes from the dual Harris
// two-pass ratio test described above.
//
// Entry conditions (all must hold, else the solve falls back to the primal
// warm path and then cold, so outcomes never change):
//
//   - The deltas since the model's stored basis are rhs/bound only; the
//     model classifies this itself, so callers have nothing to set.
//   - The snapshot fits exactly: the model's shape, exactly m basic
//     columns (a count-repaired or block-spliced basis goes primal).
//   - The implied basis matrix factorizes, and the installed statuses
//     price dual feasible against the current objective.
//
// A dual phase that hits the iteration limit, numerical trouble, or an
// apparent infeasibility (which a stale start cannot be trusted to prove)
// likewise resets and falls back. Solution.DualPivots reports the pivots
// the dual phase took.
//
// The solver reports primal values, row duals, reduced costs, and a status
// (Optimal, Infeasible, Unbounded, IterLimit, Numerical). It is deterministic:
// the same model always takes the same pivot sequence.
package lp
