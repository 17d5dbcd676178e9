package lp

import (
	"math"
	"math/rand"
	"testing"
)

// colOf materializes column q (structural, slack, or artificial) of the
// current standardized problem as a dense row-space vector.
func colOf(s *simplex, q int) []float64 {
	want := make([]float64, s.m)
	if q >= s.artStart {
		want[q-s.artStart] = s.artSign[q-s.artStart]
	} else {
		ind, val := s.std.col(q)
		for t, i := range ind {
			want[i] = val[t]
		}
	}
	return want
}

// TestFTPivotChainMatchesRefactor is the Forrest–Tomlin equivalence
// property suite: starting from a solved basis, apply a long randomized
// chain of basis exchanges through update and verify after every accepted
// update that ftran still inverts the true basis (B·(B⁻¹a_q) = a_q) and
// btran its transpose — then refactor from scratch and check the updated
// factors and the fresh ones solve identically. A rejected update (the FT
// stability guard) must leave the factorization rebuildable.
func TestFTPivotChainMatchesRefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 6; trial++ {
		s, f := solvedLU(t, rng, 12+rng.Intn(10), 20+rng.Intn(16),
			Options{ReinvertEvery: 1 << 30})
		w := make([]float64, s.m)
		w2 := make([]float64, s.m)
		z := make([]float64, s.m)
		steps := 0
		for attempt := 0; attempt < 400 && steps < 3*s.m; attempt++ {
			q := rng.Intn(s.ncols + s.m)
			inBasis := false
			for _, j := range s.basis {
				if j == q {
					inBasis = true
					break
				}
			}
			if inBasis {
				continue
			}
			f.ftranCol(q, w)
			leave, best := -1, 0.1
			for i := 0; i < s.m; i++ {
				if a := math.Abs(w[i]); a > best {
					best, leave = a, i
				}
			}
			if leave < 0 {
				continue // no stable pivot for this column; try another
			}
			if !f.update(leave, w) {
				// Stability rejection: the factors are in an undefined state
				// until rebuilt, exactly as the solver treats it.
				if !f.refactor() {
					t.Fatalf("trial %d: refactor failed after FT rejection", trial)
				}
				continue
			}
			s.basis[leave] = q
			steps++

			// The entering column must round-trip through the updated factors.
			f.ftranCol(q, w2)
			if d := maxAbsDiff(mulBasis(f, w2), colOf(s, q)); d > 1e-7 {
				t.Fatalf("trial %d step %d: ftran residual %g after FT update",
					trial, steps, d)
			}
			// And a unit btran must round-trip through the transpose.
			r := rng.Intn(s.m)
			f.btranUnit(r, z)
			got := mulBasisT(f, z)
			want := make([]float64, s.m)
			want[r] = 1
			if d := maxAbsDiff(got, want); d > 1e-7 {
				t.Fatalf("trial %d step %d: btranUnit(%d) residual %g after FT update",
					trial, steps, r, d)
			}
		}
		if steps < s.m {
			t.Fatalf("trial %d: chain only absorbed %d updates", trial, steps)
		}

		// FT-updated factors and a refactorization from scratch must agree on
		// every solve they are asked for.
		probe := make([]int, 0, 8)
		for len(probe) < 8 {
			probe = append(probe, rng.Intn(s.ncols+s.m))
		}
		ftSol := make([][]float64, len(probe))
		for k, q := range probe {
			f.ftranCol(q, w)
			ftSol[k] = append([]float64(nil), w...)
		}
		yFT := make([]float64, s.m)
		f.btranCost(yFT)
		if !f.refactor() {
			t.Fatalf("trial %d: refactor failed on an FT-updated basis", trial)
		}
		for k, q := range probe {
			f.ftranCol(q, w)
			if d := maxAbsDiff(ftSol[k], w); d > 1e-7 {
				t.Fatalf("trial %d: FT vs refactor ftran(%d) differ by %g", trial, q, d)
			}
		}
		yFresh := make([]float64, s.m)
		f.btranCost(yFresh)
		if d := maxAbsDiff(yFT, yFresh); d > 1e-7 {
			t.Fatalf("trial %d: FT vs refactor btranCost differ by %g", trial, d)
		}
	}
}

// TestFTAgreesWithDense: Forrest–Tomlin updates are a performance choice,
// not a semantic one — SparseLU must return the same statuses and
// objectives as the Dense reference backend over randomized instances.
func TestFTAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		p1 := randomFeasibleLP(rng, 8+rng.Intn(12), 14+rng.Intn(20))
		p2 := cloneProblem(p1)
		// A small reinvert cadence keeps the FT path exercising updates and
		// refactorizations within these small instances.
		s1, err := p1.SolveWithOptions(Options{Backend: SparseLU, ReinvertEvery: 11})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := p2.SolveWithOptions(Options{Backend: Dense})
		if err != nil {
			t.Fatal(err)
		}
		if s1.Status != s2.Status {
			t.Fatalf("trial %d: status %v (ft) vs %v (dense)", trial, s1.Status, s2.Status)
		}
		if s1.Status == Optimal && !approxEq(s1.Objective, s2.Objective, 1e-6) {
			t.Fatalf("trial %d: obj %.10g (ft) vs %.10g (dense)", trial, s1.Objective, s2.Objective)
		}
	}
}

// degenerateLP builds instances that live on highly degenerate vertices:
// many zero right-hand sides (the feasible region's corner at the origin has
// far more tight constraints than dimensions) and duplicated rows (exact
// ties in every ratio test). This is the family where a one-pass ratio test
// stalls on near-zero pivots and cycling lives.
func degenerateLP(rng *rand.Rand, m, n int) *Problem {
	p := NewProblem(Maximize)
	for j := 0; j < n; j++ {
		p.AddVariable(rng.NormFloat64(), 0, 2+float64(rng.Intn(3)), "")
	}
	for i := 0; i < m; i++ {
		var idx []int
		var val []float64
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.3 {
				idx = append(idx, j)
				val = append(val, float64(1+rng.Intn(3)))
			}
		}
		if len(idx) == 0 {
			continue
		}
		rhs := 0.0
		if rng.Float64() < 0.5 {
			rhs = float64(rng.Intn(3))
		}
		p.AddConstraint(idx, val, LE, rhs, "")
		if rng.Float64() < 0.3 {
			p.AddConstraint(idx, val, LE, rhs, "")
		}
	}
	return p
}

// TestHarrisRatioTestDegenerateFuzz: on the degenerate family, the Harris
// two-pass ratio tests (primal and, through warm re-solves, dual) must
// terminate within the iteration budget and agree with Bland's rule and the
// dense backend — the two references whose termination and correctness are
// known. A cycling or stalling regression shows up as IterLimit or an
// objective mismatch.
func TestHarrisRatioTestDegenerateFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		p1 := degenerateLP(rng, 6+rng.Intn(11), 8+rng.Intn(17))
		p2 := cloneProblem(p1)
		p3 := cloneProblem(p1)
		s1, err := p1.SolveWithOptions(Options{Backend: SparseLU})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := p2.SolveWithOptions(Options{Backend: SparseLU, BlandOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		s3, err := p3.SolveWithOptions(Options{Backend: Dense})
		if err != nil {
			t.Fatal(err)
		}
		if s1.Status != Optimal || s2.Status != Optimal || s3.Status != Optimal {
			t.Fatalf("trial %d: statuses %v/%v/%v", trial, s1.Status, s2.Status, s3.Status)
		}
		if !approxEq(s1.Objective, s2.Objective, 1e-6) || !approxEq(s1.Objective, s3.Objective, 1e-6) {
			t.Fatalf("trial %d: objectives %.10g (harris) %.10g (bland) %.10g (dense)",
				trial, s1.Objective, s2.Objective, s3.Objective)
		}
		if err := p1.CheckFeasible(s1.X, 1e-6); err != nil {
			t.Fatalf("trial %d: harris solution infeasible: %v", trial, err)
		}
	}
}
