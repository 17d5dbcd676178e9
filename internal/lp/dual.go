package lp

import "math"

// This file implements the dual simplex phase used to re-solve
// rhs/bound-only perturbations of an already-solved model. The previous
// optimal basis stays dual feasible under such deltas (reduced costs do not
// depend on b, l, or u), so instead of repairing primal feasibility with the
// bound-shifting phase 1 the solver can run dual pivots: repeatedly choose a
// basic variable that violates one of its bounds, drive it out of the basis
// onto that bound, and bring in the nonbasic column whose reduced-cost ratio
// keeps every other column dual feasible. Each pivot removes one
// infeasibility, so load-change deltas typically settle in a handful of
// pivots where a primal warm repair would grind through a composite
// phase 1.
//
// Leaving-row selection uses dual devex weights: rows are ranked by
// violation²/weight, where the reference-framework weights grow as rows
// participate in pivots — the dual analogue of the primal devex pricing in
// simplex.go. Entering-column
// selection is a Harris two-pass bounded ratio test: pass 1 relaxes every
// reduced cost by the dual tolerance to find the loosest admissible ratio,
// pass 2 takes the largest-pivot candidate under it, trading a ≤ tolOpt
// dual excursion for pivot quality on degenerate chains.
//
// Entry is gated by initWarmDual, which rejects (returning the caller to
// the primal warm path) any start that is not an exact-shape, factorizable,
// dual-feasible snapshot. dualIterate likewise reports anything other than
// a clean primally-feasible finish as a failure — including apparent
// infeasibility, which a stale start cannot be trusted to prove — and the
// caller falls back, so the dual phase changes solve speed, never solve
// outcomes.

// initWarmDual attempts to install basis snapshot b as a dual simplex
// starting point. Unlike the primal warm path it demands an exact fit: the
// snapshot must have the model's shape, exactly m basic columns, a
// factorizable basis matrix, and reduced costs that are still dual feasible
// for the current objective. On success the solver holds phase-2 costs, a
// factorized basis, and (possibly bound-violating) basic values, ready for
// dualIterate.
func (s *simplex) initWarmDual(b *Basis) bool {
	if b == nil || len(b.VarStatus) != s.std.n || len(b.SlackStatus) != s.std.m {
		return false
	}
	if b.NumBasic() != s.std.m {
		// A repaired basic count means promoted/demoted columns whose
		// reduced costs carry no dual-feasibility promise; leave those
		// snapshots to the primal warm path.
		return false
	}
	if !s.installBasis(b) {
		return false
	}
	s.phase = 2
	copy(s.cost, s.std.c)

	// Dual feasibility check against the real costs. An optimal snapshot
	// perturbed only in b/l/u passes exactly; anything else that happens to
	// pass is equally safe to pivot on.
	s.btran()
	tol := 10 * tolOpt
	for j := 0; j < s.ncols; j++ {
		if s.status[j] == statBasic || s.std.lb[j] == s.std.ub[j] {
			continue
		}
		d := s.reducedCost(j)
		switch s.status[j] {
		case statLower:
			if d < -tol {
				return false
			}
		case statUpper:
			if d > tol {
				return false
			}
		default: // statFree
			if math.Abs(d) > tol {
				return false
			}
		}
	}
	// Fresh reference framework per install — weights describe this basis
	// only.
	if len(s.dualW) != s.m {
		s.dualW = make([]float64, s.m)
	}
	s.resetDualDevex()
	return true
}

// dualIterate runs dual simplex pivots until every basic variable is back
// inside its bounds (Optimal — primal and dual feasible, so the phase-2
// primal cleanup that follows typically takes zero pivots) or the phase
// fails. Infeasible here means no entering column could absorb the
// violation — a certificate the caller re-derives through the primal path
// rather than trusting a warm start with.
func (s *simplex) dualIterate() Status {
	if s.dualRho == nil {
		s.dualRho = make([]float64, s.m)
	}
	rho := s.dualRho

	for {
		if s.iters >= s.opts.MaxIters {
			return IterLimit
		}

		// Leaving row: devex-scored bound violation (violation²/weight), or
		// the first violation under Bland mode (guaranteeing finite
		// termination under degeneracy).
		r := -1
		above := false // true when the violation is past the upper bound
		worst := 0.0
		for i := 0; i < s.m; i++ {
			j := s.basis[i]
			viol, up := 0.0, false
			if v := s.lbOf(j) - s.x[j]; v > tolFeas {
				viol = v
			}
			if v := s.x[j] - s.ubOf(j); v > tolFeas && v > viol {
				viol, up = v, true
			}
			if viol == 0 {
				continue
			}
			if s.blandMode {
				r, above = i, up
				break
			}
			if score := viol * viol / s.dualW[i]; score > worst {
				worst, r, above = score, i, up
			}
		}
		if r < 0 {
			return Optimal
		}

		out := s.basis[r]
		var bound float64
		vdir := 1.0
		if above {
			bound = s.ubOf(out)
		} else {
			bound = s.lbOf(out)
			vdir = -1
		}
		delta := s.x[out] - bound // sign matches vdir

		// Duals for the ratio test, and the pivot row ρ = B⁻ᵀe_r.
		s.btran()
		s.bas.btranUnit(r, rho)

		// Entering column, Harris two-pass. Pass 1 collects every column
		// whose movement can absorb the violation and the loosest
		// admissible ratio (each reduced cost relaxed by the dual
		// tolerance); pass 2 picks the largest |pivot| among candidates
		// whose exact ratio fits under it, so degenerate chains pay a
		// ≤ tolOpt dual excursion instead of a near-zero pivot. Bland
		// mode keeps the strict smallest-ratio, smallest-index rule.
		candJ := s.dualCandJ[:0]
		candA := s.dualCandA[:0]
		candD := s.dualCandD[:0]
		thetaMax := math.Inf(1)
		for j := 0; j < s.ncols; j++ {
			st := s.status[j]
			if st == statBasic || s.std.lb[j] == s.std.ub[j] {
				continue
			}
			var alpha float64
			ind, val := s.std.col(j)
			for t, i := range ind {
				alpha += rho[i] * val[t]
			}
			abar := alpha * vdir
			switch st {
			case statLower:
				if abar <= tolPivot {
					continue
				}
			case statUpper:
				if abar >= -tolPivot {
					continue
				}
			default: // statFree
				if abar <= tolPivot && abar >= -tolPivot {
					continue
				}
			}
			dj := math.Abs(s.reducedCost(j))
			if t := (dj + tolOpt) / math.Abs(alpha); t < thetaMax {
				thetaMax = t
			}
			candJ = append(candJ, int32(j))
			candA = append(candA, alpha)
			candD = append(candD, dj)
		}
		s.dualCandJ, s.dualCandA, s.dualCandD = candJ, candA, candD
		if len(candJ) == 0 {
			// No column can absorb the violation: the primal is infeasible
			// (dual unbounded) — as far as this start can tell.
			return Infeasible
		}
		q := -1
		var alphaQ, bestRatio, bestPiv float64
		if s.blandMode {
			bestRatio = math.Inf(1)
			for t, j := range candJ {
				ratio := candD[t] / math.Abs(candA[t])
				if ratio < bestRatio-1e-12 || (ratio <= bestRatio+1e-12 && (q < 0 || int(j) < q)) {
					q, alphaQ, bestRatio = int(j), candA[t], ratio
				}
			}
		} else {
			for t, j := range candJ {
				a := math.Abs(candA[t])
				if a <= bestPiv {
					continue
				}
				if ratio := candD[t] / a; ratio <= thetaMax {
					q, alphaQ, bestRatio, bestPiv = int(j), candA[t], ratio, a
				}
			}
			if q < 0 {
				// Unreachable barring floating-point corner cases (the exact
				// minimum ratio always fits under the relaxed bound); take
				// the strict minimum as the safe answer.
				bestRatio = math.Inf(1)
				for t, j := range candJ {
					if ratio := candD[t] / math.Abs(candA[t]); ratio < bestRatio {
						q, alphaQ, bestRatio = int(j), candA[t], ratio
					}
				}
			}
		}

		// Pivot. The ftran'd entering column must agree with the row-wise
		// pivot element; a mismatch or vanishing pivot means the
		// factorization has drifted — reinvert once, then give up.
		s.ftran(q)
		wr := s.w[r]
		if math.Abs(wr) <= tolPivot || wr*alphaQ < 0 {
			if s.tryRecover() {
				continue
			}
			return Numerical
		}
		s.updateDualDevex(r)
		step := delta / wr
		for i := 0; i < s.m; i++ {
			if wi := s.w[i]; wi != 0 {
				s.x[s.basis[i]] -= wi * step
			}
		}
		s.x[out] = bound
		if above {
			s.status[out] = statUpper
		} else {
			s.status[out] = statLower
		}
		s.x[q] += step
		s.basis[r] = q
		s.status[q] = statBasic

		// Dual degeneracy (zero-ratio pivots) is where cycling lives; after
		// a run of them, switch to Bland-style selection.
		if bestRatio <= tolOpt {
			s.degenerateRun++
			if s.degenerateRun > 2*s.m+20 {
				s.blandMode = true
			}
		} else {
			s.degenerateRun = 0
			if !s.opts.BlandOnly {
				s.blandMode = false
			}
		}

		if !s.bas.update(r, s.w) {
			if !s.reinvert() {
				return Numerical
			}
		}
		s.iters++
		s.sinceReinvert++
		if s.sinceReinvert >= s.opts.ReinvertEvery || s.bas.wantRefactor() {
			if !s.reinvert() {
				return Numerical
			}
		}
	}
}

// updateDualDevex refreshes the dual reference weights after a pivot in row
// r, reading the entering column's ftran from s.w (so it must run after
// s.ftran(q) and before the basis update). Weights live on basis positions:
// position i's weight grows with (w_i/w_r)² relative to the pivot row's, the
// standard Forrest–Goldfarb recurrence transposed to rows.
func (s *simplex) updateDualDevex(r int) {
	wr := s.w[r]
	wref := s.dualW[r]
	inv2 := 1 / (wr * wr)
	maxW := 1.0
	for i, wi := range s.w {
		if wi == 0 || i == r {
			continue
		}
		if cand := wi * wi * inv2 * wref; cand > s.dualW[i] {
			s.dualW[i] = cand
		}
		if s.dualW[i] > maxW {
			maxW = s.dualW[i]
		}
	}
	out := wref * inv2
	if out < 1 {
		out = 1
	}
	s.dualW[r] = out
	// Reset the framework when weights blow up (standard devex hygiene).
	if maxW > 1e8 {
		s.resetDualDevex()
	}
}
