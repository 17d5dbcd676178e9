package lp_test

import (
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
)

// The backend regression benchmarks: one solve of each case-study-shaped
// instance (te, cluster, lb at small/medium/large) per backend. cmd/lpbench
// runs the same generators and writes BENCH_lp.json so PRs can compare.

func benchBackend(b *testing.B, backend lp.SolverBackend) {
	for _, in := range gen.All(1) {
		b.Run(in.Name(), func(b *testing.B) {
			b.ReportMetric(float64(in.P.NumConstraints()), "rows")
			for i := 0; i < b.N; i++ {
				sol, err := in.P.SolveWithOptions(lp.Options{Backend: backend})
				if err != nil {
					b.Fatal(err)
				}
				if sol.Status != lp.Optimal {
					b.Fatalf("%s: status %v", in.Name(), sol.Status)
				}
			}
		})
	}
}

func BenchmarkLPSolveDense(b *testing.B)    { benchBackend(b, lp.Dense) }
func BenchmarkLPSolveSparseLU(b *testing.B) { benchBackend(b, lp.SparseLU) }

// BenchmarkLURefactor times one SparseLU refactorization of the optimal
// basis of the cluster and te instances at Medium and Large size: the cost
// every cold start, warm-basis install and refactor trigger pays.
func BenchmarkLURefactor(b *testing.B) {
	for _, in := range gen.All(1) {
		if in.Size == gen.Small || in.Family == "lb" {
			continue
		}
		var refactor func() bool
		b.Run(in.Name(), func(b *testing.B) {
			if refactor == nil { // the solve runs once, not once per b.N probe
				var err error
				if refactor, err = lp.OptimalBasisRefactor(in.P); err != nil {
					b.Fatalf("%s: %v", in.Name(), err)
				}
			}
			b.ReportMetric(float64(in.P.NumConstraints()), "rows")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !refactor() {
					b.Fatalf("%s: optimal basis reported singular", in.Name())
				}
			}
		})
	}
}
