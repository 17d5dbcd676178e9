// Package price implements a solver-free price-discovery allocator — the
// dual-decomposition scheme of "Allocation of Fungible Resources via a
// Fast, Scalable Price Discovery Method" (Agrawal, Boyd, Narayanan,
// Kazhamiaka, Zaharia) — as a second engine beside the LP/POP path: per-
// resource prices, independent per-client best responses, and iterative
// price updates replace the simplex entirely. Best responses are closed
// forms evaluated independently per client, so the inner loop is
// embarrassingly parallel and scales to millions of clients per round.
//
// # Price update rule
//
// Each iteration t computes every client's exact best response under the
// current prices (fanned out over core.ParallelMap in fixed 1024-client
// chunks whose partial demands reduce in chunk order, so results are
// bit-identical serial or parallel), then moves each price against its
// relative excess demand multiplicatively:
//
//	p_i ← clamp(p_i · exp(η_t · clip((demand_i − cap_i)/cap_i, ±1)))
//
// with a diminishing step η_t = η/√(t0+t), η = 0.5. Multiplicative updates
// keep prices positive and let them traverse orders of magnitude in few
// iterations — necessary because low-elasticity utilities (the alpha-fair
// max-min approximation, α = 32, with η scaled to α/12 to hold the
// effective price motion constant across exponents)
// need large price swings to move demand: at equilibrium their marginal
// utilities scale as u^-α, so clearing prices legitimately sit many orders
// of magnitude above the demand-seeded cold start. Prices are therefore
// clamped to a deliberately vast [1e-18, 1e18]× band around that scale —
// a tight ceiling silently caps the walk and freezes the residual.
//
// Domains with a known aggregate elasticity (both cluster adapters:
// interior alpha-fair demand scales as p^(−1/α), log-utility as p^(−1))
// additionally get a common-mode damped Newton rescale each iteration:
// the whole price vector is multiplied by exp(½·E·mean(log(demand/cap))),
// with the underdemand side of the mean weighted by price/(price+p0) as
// in the clearing residual. A uniform rescale leaves relative prices —
// and therefore every client's resource choice — unchanged, so unlike the
// per-resource step it cannot set off choice-flipping oscillation and may
// safely move orders of magnitude at once. It carries both the cold
// start's climb to the clearing scale (~5× fewer iterations) and a warm
// round's uniform demand drift (e.g. weight growth on surviving clients),
// leaving the small per-resource steps only the relative imbalance.
//
// Primal iterates fold into a polynomially weighted running average
// (iterate t gets weight ∝ t^8), so late, well-priced responses dominate
// and the cold-start transient is forgotten quickly; the averaged demands
// are the allocation. Adapters finish with a cheap
// feasibility projection (cluster: capacity-column scaling; lb: a
// deterministic band-repair pass), so reported allocations are always
// feasible and quality gaps show up in the objective, never as constraint
// violations.
//
// # Clearing tolerance
//
// Convergence is declared when the averaged market's complementarity
// residual falls below 1% (after at least 4 iterations): the worst relative
// overdemand, or on underdemanded resources the relative idle capacity
// weighted by price/(price+p0) — idle capacity only violates clearing
// while its price remains meaningfully above the cold-start scale p0.
// Solves that exhaust MaxIters (default 1200) return the residual with
// Converged=false; nothing is hidden. The lb adapter runs a short walk
// (200 iterations unless set): its integral shard market plateaus early
// and the deterministic band repair does the final leveling, so it
// routinely reports Converged=false with a fully acceptable assignment.
//
// # Warm-start contract
//
// The online engines seed each solve from the previous round's
// Solution.Price, the final prices of a solve of a similar market. A warm
// start changes the starting point and the step schedule (t0 = 100, so
// corrective steps start small enough not to kick near-equilibrium prices
// into oscillation), never the clearing criterion: warm and cold runs
// converge to the same tolerance against the same market, differing only
// in iterations spent. A carried vector of the wrong shape or with
// non-positive entries is ignored (cold start), never an error. The
// engines drop carried prices — mirroring lp.Model's warm-hostile basis
// drop — when membership churn (arrivals + departures, relative to the
// client count) reaches ¼; capacity changes rescale carried prices instead
// of dropping them. Data jitter on surviving clients never drops prices:
// absorbing it is the warm start's job, and on low-churn rounds warm prices
// cut iterations-to-clearing by an order of magnitude.
//
// # Determinism
//
// Given identical inputs, Options.Seed, and carried prices, a solve's output is
// bit-identical regardless of Options.Parallel or GOMAXPROCS: chunked
// reduction fixes the summation order, cold-start jitter derives from the
// seed, and best responses are pure functions.
//
// # Round surface
//
// ClusterEngine takes deltas only: Upsert and Remove change its client set
// (a cluster.Roster, which keeps the ascending-ID order current without a
// per-round sort), and Solve(pool) solves whatever that set is and returns
// the allocation as cluster.Columns in ascending-ID order. The market is
// built in that order too, so an allocation depends only on the held
// clients, never on the order their deltas arrived in. Batch callers with
// a full client list go through cluster.SyncTo (Policy wraps it for
// gavelsim's round loop).
package price
