package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"pop/internal/cluster"
)

// TestDeltasMatchSyncTo: one seeded churn sequence driven twice — as
// Upsert/Remove deltas, and as cluster.SyncTo of the full client list —
// must leave the two engines allocating bit-identically every round. The
// deltas go in the order a coordinator batch carries them (upserts, then
// removals by ascending id), which is the order SyncTo derives.
func TestDeltasMatchSyncTo(t *testing.T) {
	for _, policy := range []string{"maxmin", "makespan", "spacesharing", "price"} {
		t.Run(policy, func(t *testing.T) {
			cfg := EngineConfig{Policy: policy, K: 3}
			byDelta, err := NewEngine(testCluster(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			bySync, err := NewEngine(testCluster(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rnd := rand.New(rand.NewSource(21))
			live := map[int]cluster.Job{}
			nextID := 0
			for round := 1; round <= 12; round++ {
				// Departures and updates hit last round's clients: a client
				// that arrives and leaves within one round is churn the
				// deltas see and a list never shows (the price engine counts
				// it toward its cold-restart threshold).
				ids := sortedIDs(live)
				var ups []cluster.Job
				for a := 2 + rnd.Intn(4); a > 0; a-- {
					j := randJob(nextID, rnd)
					live[j.ID] = j
					ups = append(ups, j)
					nextID++
				}
				var gone []int
				if len(ids) > 8 {
					for d := rnd.Intn(3); d > 0; d-- {
						if id := ids[rnd.Intn(len(ids))]; !slices.Contains(gone, id) {
							gone = append(gone, id)
						}
					}
				}
				for u := rnd.Intn(3); u > 0 && len(ids) > 0; u-- {
					j := live[ids[rnd.Intn(len(ids))]]
					j.Throughput = []float64{1 + rnd.Float64(), 2 + 2*rnd.Float64(), 3 + 3*rnd.Float64()}
					live[j.ID] = j
					ups = append(ups, j)
				}
				slices.Sort(gone)
				for _, id := range gone {
					delete(live, id)
				}
				pool := testCluster()
				if round%4 == 0 {
					pool = cluster.NewCluster(12, 10+float64(round), 12)
				}

				for _, j := range ups {
					byDelta.Engine.Upsert(j)
				}
				for _, id := range gone {
					byDelta.Engine.Remove(id)
				}
				want, err := byDelta.Engine.Solve(pool)
				if err != nil {
					t.Fatalf("round %d deltas: %v", round, err)
				}
				cluster.SyncTo(bySync.Engine, sortedJobs(live))
				got, err := bySync.Engine.Solve(pool)
				if err != nil {
					t.Fatalf("round %d sync: %v", round, err)
				}

				if !slices.Equal(got.IDs, sortedIDs(live)) || !slices.Equal(want.IDs, got.IDs) {
					t.Fatalf("round %d: ids %v (deltas) / %v (sync), live %v", round, want.IDs, got.IDs, sortedIDs(live))
				}
				if !bitsEqual(got.EffThr, want.EffThr) || !bitsEqual(got.X, want.X) {
					t.Fatalf("round %d: sync-driven columns differ from delta-driven ones:\n sync %v %v\ndelta %v %v",
						round, got.EffThr, got.X, want.EffThr, want.X)
				}
				if (got.X == nil) != (policy == "spacesharing") || got.Stale != nil {
					t.Fatalf("round %d: X nil %t, Stale %v under %s", round, got.X == nil, got.Stale, policy)
				}
			}
		})
	}
}

func sortedIDs(live map[int]cluster.Job) []int {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestWorkerRefusesOversizeBodies: a round or sync body over the cap is
// answered 413 before the engine sees any of it — the worker's last round
// and job set are unchanged — and the next well-formed round still lands.
func TestWorkerRefusesOversizeBodies(t *testing.T) {
	f := newFleet(t, 1, EngineConfig{Policy: "price"}, WorkerOptions{})
	w, eng := f.workers[0], f.bundles[0].Engine
	rnd := rand.New(rand.NewSource(12))
	post := func(path string, v any) int {
		t.Helper()
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(f.urls[0]+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	round := func(n, first int) *RoundRequest {
		req := &RoundRequest{Round: 1, GPUs: testCluster().NumGPUs}
		for id := first; id < first+n; id++ {
			req.Upserts = append(req.Upserts, SpecOf(randJob(id, rnd)))
		}
		return req
	}
	if got := post(PathRound, round(3, 0)); got != http.StatusOK {
		t.Fatalf("first round: status %d", got)
	}

	defer func(old int64) { maxRequestBytes = old }(maxRequestBytes)
	maxRequestBytes = 4 << 10
	big := round(200, 100)
	big.Round, big.PrevRound = 2, 1
	if got := post(PathRound, big); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize round: status %d, want 413", got)
	}
	sync := &SyncRequest{Round: 5, GPUs: testCluster().NumGPUs, Jobs: big.Upserts}
	if got := post(PathSync, sync); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize sync: status %d, want 413", got)
	}
	if w.LastRound() != 1 || eng.NumJobs() != 3 || !slices.Equal(eng.IDs(), []int{0, 1, 2}) {
		t.Fatalf("refused bodies changed the worker: round %d, jobs %v", w.LastRound(), eng.IDs())
	}

	next := round(2, 10)
	next.Round, next.PrevRound = 2, 1
	if got := post(PathRound, next); got != http.StatusOK {
		t.Fatalf("round after the refusals: status %d", got)
	}
	if w.LastRound() != 2 || eng.NumJobs() != 5 {
		t.Fatalf("round after the refusals: round %d, %d jobs", w.LastRound(), eng.NumJobs())
	}
}
