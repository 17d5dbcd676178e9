package gen

import (
	"fmt"
	"math"
	"testing"

	"pop/internal/lp"
)

// TestOptionCombinationsAgree: every combination of the solver's mode
// options must reach the default options' status and objective on every
// Small instance. Regression test for primal devex writing the weight of a
// phase-1 artificial as it leaves the basis (an index out of range on
// lb/small).
func TestOptionCombinationsAgree(t *testing.T) {
	families := []struct {
		name  string
		build func(Size, int64) *lp.Problem
	}{{"te", TE}, {"cluster", Cluster}, {"lb", LB}}
	for _, f := range families {
		want, err := f.build(Small, 1).SolveWithOptions(lp.Options{})
		if err != nil {
			t.Fatalf("%s/small default: %v", f.name, err)
		}
		for combo := 0; combo < 32; combo++ {
			opts := lp.Options{
				Devex:     combo&1 != 0,
				Scale:     combo&2 != 0,
				BlandOnly: combo&8 != 0,
				Backend:   lp.SparseLU,
			}
			if combo&4 != 0 {
				opts.Backend = lp.Dense
			}
			if combo&16 != 0 {
				// A short cadence makes every solve cross many refactors.
				opts.ReinvertEvery = 11
			}
			name := fmt.Sprintf("%s/devex=%t,scale=%t,bland=%t,reinvert=%d,backend=%v",
				f.name, opts.Devex, opts.Scale, opts.BlandOnly, opts.ReinvertEvery, opts.Backend)
			t.Run(name, func(t *testing.T) {
				got, err := f.build(Small, 1).SolveWithOptions(opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Status != want.Status {
					t.Fatalf("status %v, default options give %v", got.Status, want.Status)
				}
				if d := math.Abs(got.Objective - want.Objective); d > 1e-6*(1+math.Abs(want.Objective)) {
					t.Fatalf("objective %.10g, default options give %.10g", got.Objective, want.Objective)
				}
			})
		}
	}
}
