package price

import (
	"fmt"
	"testing"

	"pop/internal/cluster"
)

// BenchmarkWarmRound times one warm engine round (2% churn) at the sizes
// pricebench gaps against the LP — the per-round latency the online path
// pays once prices are carried.
func BenchmarkWarmRound(b *testing.B) {
	for _, n := range []int{400, 1600, 6400} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			g := float64(n) / 5
			c := cluster.NewCluster(g, g, g)
			jobs := cluster.GenerateJobs(n, 1, 0.2)
			eng, err := NewClusterEngine(c, MaxMinFairness, EngineOptions{Solver: Options{Seed: 1}})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Policy()(jobs, c); err != nil {
				b.Fatal(err)
			}
			nChurn := n / 50
			nextID := n
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fresh := cluster.GenerateJobs(nChurn, int64(1000+i), 0.2)
				for k := range fresh {
					fresh[k].ID = nextID
					nextID++
					jobs[k%len(jobs)] = fresh[k]
				}
				if _, err := eng.Policy()(jobs, c); err != nil {
					b.Fatal(err)
				}
			}
			st := eng.Stats()
			b.ReportMetric(float64(st.LastIterations), "iters/round")
		})
	}
}

// BenchmarkBestResponse times the inner closed form alone.
func BenchmarkBestResponse(b *testing.B) {
	jobs := cluster.GenerateJobs(1024, 1, 0.2)
	c := cluster.NewCluster(200, 200, 200)
	d := newMaxMinDomain(jobs, c, 32)
	price := []float64{0.3, 1.7, 0.9}
	d.PrepareIteration(price)
	out := make([]float64, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.BestResponse(i%1024, price, out)
	}
}
