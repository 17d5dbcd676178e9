package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRosterOrderUnderDeltas: after any mix of arrivals, departures,
// updates and same-round cancellations (arrive then leave, leave then
// return), IDs is the ascending key set, and a slice IDs returned earlier
// is never modified by later deltas.
func TestRosterOrderUnderDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r Roster
	ref := map[int]bool{}
	var kept [][]int
	var copies [][]int
	for round := 0; round < 200; round++ {
		for op := rng.Intn(12); op > 0; op-- {
			id := rng.Intn(40)
			if rng.Intn(3) == 0 {
				if got := r.Remove(id); got != ref[id] {
					t.Fatalf("round %d: Remove(%d) = %t, held %t", round, id, got, ref[id])
				}
				delete(ref, id)
				continue
			}
			j := Job{ID: id, Throughput: []float64{float64(rng.Intn(3))}}
			old, had := r.Get(id)
			isNew, changed := r.Upsert(j)
			if isNew != !had || changed != (!had || !JobsEqual(old, j)) {
				t.Fatalf("round %d: Upsert(%d) = (%t, %t), held %t", round, id, isNew, changed, had)
			}
			ref[id] = true
		}
		want := make([]int, 0, len(ref))
		for id := range ref {
			want = append(want, id)
		}
		slices.Sort(want)
		got := r.IDs()
		if !slices.Equal(got, want) || r.Len() != len(want) {
			t.Fatalf("round %d: IDs %v (len %d), want %v", round, got, r.Len(), want)
		}
		kept, copies = append(kept, got), append(copies, slices.Clone(got))
	}
	for i := range kept {
		if !slices.Equal(kept[i], copies[i]) {
			t.Fatalf("IDs slice of round %d was modified later", i)
		}
	}
}

// TestSyncToCounts: SyncTo reports kept, added and removed clients and
// leaves exactly the listed set, duplicates in the list counted once.
func TestSyncToCounts(t *testing.T) {
	var r Roster
	for _, id := range []int{1, 2, 3, 4} {
		r.Upsert(Job{ID: id})
	}
	s := rosterEngine{&r}
	kept, added, removed := SyncTo(s, []Job{{ID: 4}, {ID: 9}, {ID: 2}, {ID: 9}})
	if kept != 2 || added != 1 || removed != 2 {
		t.Fatalf("SyncTo = (%d, %d, %d), want (2, 1, 2)", kept, added, removed)
	}
	if ids := r.IDs(); !slices.Equal(ids, []int{2, 4, 9}) {
		t.Fatalf("after SyncTo the roster holds %v", ids)
	}
}

type rosterEngine struct{ *Roster }

func (e rosterEngine) Upsert(j Job) { e.Roster.Upsert(j) }
