package lp

// SolveFromBasis solves p warm from basis b, through the dual simplex first
// when dual is set. It exposes the warm-start fields Model fills to the
// external (lp_test) tests that compare the two warm paths on one problem.
func SolveFromBasis(p *Problem, b *Basis, dual bool) (*Solution, error) {
	return p.SolveWithOptions(Options{warmBasis: b, dual: dual})
}
