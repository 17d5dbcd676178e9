package lp_test

import (
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
)

// TestRefactorMatchesDenseScanReference holds the reach-based refactor to
// bit-identical factors with the dense-scan reference on every gen te,
// cluster and lb instance at Small and Medium size, at the starting basis,
// every 25th iteration along the solve and the optimal basis. Medium
// instances are skipped under -short.
func TestRefactorMatchesDenseScanReference(t *testing.T) {
	for _, in := range gen.All(1) {
		if in.Size == gen.Large || (in.Size == gen.Medium && testing.Short()) {
			continue
		}
		checks, err := lp.RefactorOracle(in.P, 25)
		if err != nil {
			t.Fatalf("%s: %v", in.Name(), err)
		}
		t.Logf("%s: %d bases bit-identical", in.Name(), checks)
	}
}
