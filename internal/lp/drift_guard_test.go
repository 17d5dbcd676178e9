package lp_test

import (
	"bytes"
	"os"
	"testing"

	"pop/internal/lp"
	"pop/internal/lp/gen"
	"pop/internal/obs"
)

// TestNumericalDriftGuard is the CI drift budget for the Forrest–Tomlin
// update path: on the case-study-shaped gen instances, SparseLU with FT
// updates and the Dense reference backend must return the same statuses and
// objectives to 1e-6, and the FT solutions must satisfy the original
// constraints to the same residual bound — so in-place U modification never
// trades correctness for its per-pivot win. The FT run carries a metrics
// registry, and the guard also asserts the refactor/update counters actually
// export, which is what popserver's /metrics and lpbench -metrics surface.
//
// Gated behind LP_DRIFT_GUARD=1: it re-solves every small+medium instance
// twice, too slow for the default short run.
func TestNumericalDriftGuard(t *testing.T) {
	if os.Getenv("LP_DRIFT_GUARD") != "1" {
		t.Skip("set LP_DRIFT_GUARD=1 to run the FT-vs-dense numerical drift guard")
	}
	reg := obs.NewRegistry()
	o := &obs.Observer{Metrics: reg}
	for _, in := range gen.All(1) {
		if in.Size == gen.Large {
			continue // the large trio triples runtime without adding coverage
		}
		ft, err := in.P.Clone().SolveWithOptions(lp.Options{Backend: lp.SparseLU, Obs: o})
		if err != nil {
			t.Fatalf("%s ft: %v", in.Name(), err)
		}
		dense, err := in.P.Clone().SolveWithOptions(lp.Options{Backend: lp.Dense})
		if err != nil {
			t.Fatalf("%s dense: %v", in.Name(), err)
		}
		if ft.Status != dense.Status {
			t.Fatalf("%s: status %v (ft) vs %v (dense)", in.Name(), ft.Status, dense.Status)
		}
		if ft.Status != lp.Optimal {
			t.Fatalf("%s: status %v", in.Name(), ft.Status)
		}
		if !approxEqF(ft.Objective, dense.Objective, 1e-6) {
			t.Fatalf("%s: obj %.12g (ft) vs %.12g (dense)", in.Name(), ft.Objective, dense.Objective)
		}
		if err := in.P.CheckFeasible(ft.X, 1e-6); err != nil {
			t.Fatalf("%s: ft solution residual out of bounds: %v", in.Name(), err)
		}
	}

	// The counters the FT path books must reach the Prometheus export.
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	for _, series := range []string{
		"pop_lp_refactors_total",
		"pop_lp_ft_updates_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(series)) {
			t.Fatalf("metrics export missing %s", series)
		}
	}
	if o.Counter("pop_lp_ft_updates_total", "").Value() == 0 {
		t.Fatal("FT runs over the gen instances booked zero FT updates")
	}
}
