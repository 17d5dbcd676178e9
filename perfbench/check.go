package main

import (
	"fmt"
	"math"
	"strconv"

	"pop/internal/cluster"
	"pop/internal/te"
)

// checkTol is the absolute-plus-relative slack every check allows for the
// engines' floating-point arithmetic and the JSON round trip.
const checkTol = 1e-6

// wireRow is one job's row in popserver's GET /v1/allocation reply, and the
// whole GET /v1/allocation/{id} reply.
type wireRow struct {
	ID     int       `json:"id"`
	X      []float64 `json:"x"`
	EffThr float64   `json:"effective_throughput"`
	Stale  bool      `json:"stale"`
}

// wireAlloc is popserver's GET /v1/allocation reply.
type wireAlloc struct {
	Round     int                `json:"round"`
	NumJobs   int                `json:"num_jobs"`
	StaleJobs int                `json:"stale_jobs"`
	Jobs      map[string]wireRow `json:"jobs"`
}

func near(a, b float64) bool { return math.Abs(a-b) <= checkTol*(1+math.Abs(b)) }

// checkRow verifies one row against the job it allocates: the right id, not
// stale, one finite non-negative fraction per GPU type summing to at most
// one, and an effective throughput equal to Σ T·x.
func checkRow(r wireRow, j cluster.Job, types int) error {
	switch {
	case r.ID != j.ID:
		return fmt.Errorf("row for job %d carries id %d", j.ID, r.ID)
	case r.Stale:
		return fmt.Errorf("job %d: stale row", j.ID)
	case len(r.X) != types:
		return fmt.Errorf("job %d: %d fractions for %d GPU types", j.ID, len(r.X), types)
	}
	sum := 0.0
	for i, x := range r.X {
		if !(x >= -checkTol) || math.IsInf(x, 0) {
			return fmt.Errorf("job %d: fraction %g on type %d", j.ID, x, i)
		}
		sum += x
	}
	if sum > 1+checkTol {
		return fmt.Errorf("job %d: time fractions sum to %g > 1", j.ID, sum)
	}
	if want := cluster.EffectiveThroughput(j, r.X); !near(r.EffThr, want) {
		return fmt.Errorf("job %d: effective_throughput %g, want %g", j.ID, r.EffThr, want)
	}
	return nil
}

// checkAllocation verifies a served allocation against the benchmark's model
// of the live jobs and the pool: the id set equals the live set, every row
// passes checkRow, and per-type Σ x·scale stays within capacity. It returns
// the allocation in live order, for the quality metric.
func checkAllocation(a *wireAlloc, live []cluster.Job, c cluster.Cluster) (*cluster.Allocation, error) {
	if len(a.Jobs) != len(live) {
		return nil, fmt.Errorf("allocation has %d jobs, %d are live", len(a.Jobs), len(live))
	}
	if a.StaleJobs != 0 {
		return nil, fmt.Errorf("allocation reports %d stale jobs", a.StaleJobs)
	}
	types := c.NumTypes()
	used := make([]float64, types)
	out := &cluster.Allocation{X: make([][]float64, len(live)), EffThr: make([]float64, len(live))}
	for idx, j := range live {
		r, ok := a.Jobs[strconv.Itoa(j.ID)]
		if !ok {
			return nil, fmt.Errorf("job %d missing from the allocation", j.ID)
		}
		if err := checkRow(r, j, types); err != nil {
			return nil, err
		}
		for i, x := range r.X {
			used[i] += x * j.Scale
		}
		out.X[idx], out.EffThr[idx] = r.X, r.EffThr
	}
	for i, u := range used {
		if capacity := c.NumGPUs[i]; u > capacity+checkTol*(1+capacity) {
			return nil, fmt.Errorf("GPU type %d over capacity: %g > %g", i, u, capacity)
		}
	}
	return out, nil
}

// checkTE verifies a traffic-engineering allocation: one flow per commodity,
// and te's own capacity and demand check.
func checkTE(a *te.Allocation, inst *te.Instance) error {
	if len(a.Flow) != len(inst.Demands) {
		return fmt.Errorf("allocation has %d flows for %d commodities", len(a.Flow), len(inst.Demands))
	}
	// VerifyFeasible compares with >, which a NaN passes.
	for _, vs := range [][]float64{a.Flow, a.EdgeFlow, {a.TotalFlow}} {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("non-finite flow %g", v)
			}
		}
	}
	return a.VerifyFeasible(inst, checkTol)
}
