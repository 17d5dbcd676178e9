package online

import (
	"math"
	"math/rand"
	"testing"

	"pop/internal/cluster"
	"pop/internal/lp"
)

func snapJob(id int, rnd *rand.Rand) cluster.Job {
	return cluster.Job{
		ID:         id,
		Throughput: []float64{1 + rnd.Float64(), 2 + 2*rnd.Float64(), 3 + 3*rnd.Float64()},
		Weight:     1,
		Scale:      float64(1 + rnd.Intn(2)),
		NumSteps:   1000,
		Priority:   1,
	}
}

// TestSnapshotRestoreRoundTrip: a restored engine reproduces the donor's
// partitions and, stepped on the same active set, the same allocation —
// and its first solves warm-start from the persisted bases.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := cluster.NewCluster(16, 16, 16)
	donor, err := NewClusterEngine(c, MaxMinFairness, Options{K: 3}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(42))
	jobs := make([]cluster.Job, 0, 24)
	for id := 0; id < 24; id++ {
		jobs = append(jobs, snapJob(id, rnd))
	}
	// A few churn rounds so the donor carries non-trivial warm state.
	for r := 0; r < 3; r++ {
		if _, err := donor.Policy()(jobs[:18+2*r], c); err != nil {
			t.Fatal(err)
		}
	}
	want, err := donor.Policy()(jobs, c)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := donor.Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewClusterEngine(c, MaxMinFairness, Options{K: 3}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got, wantN := restored.NumJobs(), donor.NumJobs(); got != wantN {
		t.Fatalf("restored %d jobs, want %d", got, wantN)
	}
	if restored.Stats() != donor.Stats() {
		t.Fatalf("restored stats %+v != donor stats %+v", restored.Stats(), donor.Stats())
	}

	statsBefore := restored.Stats()
	got, err := restored.Policy()(jobs, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if d := math.Abs(got.EffThr[i] - want.EffThr[i]); d > 1e-6 {
			t.Fatalf("job %d: restored engine allocates %g, donor %g", jobs[i].ID, got.EffThr[i], want.EffThr[i])
		}
		for k := range want.X[i] {
			if d := math.Abs(got.X[i][k] - want.X[i][k]); d > 1e-6 {
				t.Fatalf("job %d: x[%d] diverged by %g after restore", jobs[i].ID, k, d)
			}
		}
	}
	d := restored.Stats()
	if d.WarmAttempts == statsBefore.WarmAttempts {
		t.Fatal("restored engine never warm-started from the snapshot bases")
	}
}

// TestSnapshotRestoreRejectsMismatch: wrong policy or partition shape must
// not corrupt the engine.
func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	c := cluster.NewCluster(8, 8, 8)
	donor, err := NewClusterEngine(c, MaxMinFairness, Options{K: 2}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(7))
	jobs := []cluster.Job{snapJob(0, rnd), snapJob(1, rnd), snapJob(2, rnd)}
	if _, err := donor.Policy()(jobs, c); err != nil {
		t.Fatal(err)
	}
	st := donor.Snapshot()

	other, err := NewClusterEngine(c, MinMakespan, Options{K: 2}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(st); err == nil {
		t.Fatal("policy-mismatched restore succeeded")
	}
	smaller, err := NewClusterEngine(c, MaxMinFairness, Options{K: 4}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := smaller.Restore(st); err == nil {
		t.Fatal("K-mismatched restore succeeded")
	}
	if _, err := smaller.Policy()(jobs, c); err != nil {
		t.Fatalf("engine unusable after rejected restore: %v", err)
	}
}

// TestSnapshotRestoreCorruptPlacement: a snapshot whose partitions reference
// unknown jobs or double-place a job is rejected.
func TestSnapshotRestoreCorruptPlacement(t *testing.T) {
	c := cluster.NewCluster(8, 8, 8)
	donor, err := NewClusterEngine(c, MaxMinFairness, Options{K: 2}, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(8))
	jobs := []cluster.Job{snapJob(0, rnd), snapJob(1, rnd)}
	if _, err := donor.Policy()(jobs, c); err != nil {
		t.Fatal(err)
	}

	fresh := func() *ClusterEngine {
		e, err := NewClusterEngine(c, MaxMinFairness, Options{K: 2}, lp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	unknown := donor.Snapshot()
	unknown.Partitions[0] = append(unknown.Partitions[0], 999)
	if err := fresh().Restore(unknown); err == nil {
		t.Fatal("snapshot placing an unknown job restored cleanly")
	}
	double := donor.Snapshot()
	double.Partitions[0] = []int{0, 1}
	double.Partitions[1] = []int{1}
	if err := fresh().Restore(double); err == nil {
		t.Fatal("snapshot double-placing a job restored cleanly")
	}
}
