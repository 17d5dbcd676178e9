package main

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"pop/internal/cluster"
	"pop/internal/core"
	"pop/internal/lp"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

// validAlloc builds a feasible served allocation for live: every job gets
// the same share of each type, sized to fill the pool exactly.
func validAlloc(live []cluster.Job, c cluster.Cluster) *wireAlloc {
	a := &wireAlloc{Round: 1, NumJobs: len(live), Jobs: map[string]wireRow{}}
	gpus := 0.0
	for _, j := range live {
		gpus += j.Scale
	}
	for _, j := range live {
		x := make([]float64, c.NumTypes())
		for i := range x {
			x[i] = math.Min(c.NumGPUs[i]/gpus, 1.0/float64(len(x)))
		}
		a.Jobs[strconv.Itoa(j.ID)] = wireRow{ID: j.ID, X: x, EffThr: cluster.EffectiveThroughput(j, x)}
	}
	return a
}

func TestCheckAllocationCatchesCorruption(t *testing.T) {
	s := newStream(streamConfig{Clients: 40, Churn: 0.1, MultiGPU: 0.3}, 7)
	s.Next()
	live := s.Live()
	pool := cluster.NewCluster(5, 5, 5)
	if _, err := checkAllocation(validAlloc(live, pool), live, pool); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}

	first := strconv.Itoa(live[0].ID)
	edit := func(f func(r *wireRow)) func(a *wireAlloc) {
		return func(a *wireAlloc) {
			r := a.Jobs[first]
			r.X = append([]float64(nil), r.X...)
			f(&r)
			a.Jobs[first] = r
		}
	}
	cases := []struct {
		name, want string
		corrupt    func(a *wireAlloc)
	}{
		{"over capacity", "over capacity", func(a *wireAlloc) {
			for id, r := range a.Jobs {
				r.X = []float64{0.9, 0, 0}
				j, _ := s.Job(r.ID)
				r.EffThr = cluster.EffectiveThroughput(j, r.X)
				a.Jobs[id] = r
			}
		}},
		{"missing id", "missing", func(a *wireAlloc) {
			r := a.Jobs[first]
			delete(a.Jobs, first)
			a.Jobs["999999"] = r
		}},
		{"extra id", "live", func(a *wireAlloc) { a.Jobs["999999"] = a.Jobs[first] }},
		{"stale row", "stale", edit(func(r *wireRow) { r.Stale = true })},
		{"stale count", "stale", func(a *wireAlloc) { a.StaleJobs = 1 }},
		{"NaN fraction", "fraction", edit(func(r *wireRow) { r.X[1] = math.NaN() })},
		{"negative fraction", "fraction", edit(func(r *wireRow) { r.X[0] = -0.5 })},
		{"time over one", "sum", edit(func(r *wireRow) { r.X = []float64{0.6, 0.6, 0} })},
		{"wrong type count", "GPU types", edit(func(r *wireRow) { r.X = r.X[:2] })},
		{"wrong id in row", "carries id", edit(func(r *wireRow) { r.ID++ })},
		{"NaN throughput", "effective_throughput", edit(func(r *wireRow) { r.EffThr = math.NaN() })},
		{"wrong throughput", "effective_throughput", edit(func(r *wireRow) { r.EffThr *= 1.01 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := validAlloc(live, pool)
			tc.corrupt(a)
			_, err := checkAllocation(a, live, pool)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func TestCheckTECatchesCorruption(t *testing.T) {
	tp := topo.Tiny()
	demands := tm.Generate(tm.Config{Nodes: tp.G.N, Commodities: 6, Model: tm.Gravity,
		TotalDemand: 0.3 * tp.TotalCapacity(), Seed: 1})
	inst := te.NewInstance(tp, demands, 4)
	solve := func() *te.Allocation {
		a, err := te.SolvePOP(inst, te.MaxTotalFlow, core.Options{K: 2, Seed: 1}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	if err := checkTE(solve(), inst); err != nil {
		t.Fatalf("valid allocation rejected: %v", err)
	}
	cases := map[string]func(a *te.Allocation){
		"over capacity": func(a *te.Allocation) { a.EdgeFlow[0] = 10 * (1 + tp.G.Edges[0].Capacity) },
		"over demand":   func(a *te.Allocation) { a.Flow[0] = 2*demands[0].Amount + 1 },
		"missing flow":  func(a *te.Allocation) { a.Flow = a.Flow[1:] },
		"NaN edge flow": func(a *te.Allocation) { a.EdgeFlow[1] = math.NaN() },
		"NaN flow":      func(a *te.Allocation) { a.Flow[0] = math.NaN() },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			a := solve()
			corrupt(a)
			if err := checkTE(a, inst); err == nil {
				t.Fatal("corrupted allocation passed the checker")
			}
		})
	}
}
