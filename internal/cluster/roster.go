package cluster

import (
	"slices"
	"sort"
)

// JobsEqual reports whether two job specs are identical in every field an
// allocation depends on. The round engines use it to make an unchanged
// re-submission a no-op.
func JobsEqual(a, b Job) bool {
	return a.Weight == b.Weight && a.Scale == b.Scale && a.NumSteps == b.NumSteps &&
		a.Priority == b.Priority && a.MemFrac == b.MemFrac &&
		slices.Equal(a.Throughput, b.Throughput)
}

// Roster is the client set of a round engine: jobs keyed by ID plus their
// ascending-ID order, kept current under deltas. Upsert and Remove are
// O(1); IDs folds the membership changes since its last call into the order
// with one linear merge (sorting only the arrivals), so a round costs
// O(N + a·log a) for a arrivals instead of a full-list sort. The zero value
// is empty and ready to use. Not safe for concurrent use.
type Roster struct {
	jobs    map[int]Job
	ids     []int        // ascending as of the last IDs call; never written in place
	pending map[int]bool // changed since then: true = held now, false = gone
}

// Len reports the number of jobs held.
func (r *Roster) Len() int { return len(r.jobs) }

// Get returns job id and whether it is held.
func (r *Roster) Get(id int) (Job, bool) {
	j, ok := r.jobs[id]
	return j, ok
}

// Upsert stores j. It reports whether j is a new ID, and whether anything
// changed at all (false for an unchanged re-submission, which is a no-op).
func (r *Roster) Upsert(j Job) (isNew, changed bool) {
	if old, ok := r.jobs[j.ID]; ok {
		if JobsEqual(old, j) {
			return false, false
		}
		r.jobs[j.ID] = j
		return false, true
	}
	if r.jobs == nil {
		r.jobs, r.pending = map[int]Job{}, map[int]bool{}
	}
	r.jobs[j.ID] = j
	r.pending[j.ID] = true
	return true, true
}

// Remove drops job id and reports whether it was held.
func (r *Roster) Remove(id int) bool {
	if _, ok := r.jobs[id]; !ok {
		return false
	}
	delete(r.jobs, id)
	r.pending[id] = false
	return true
}

// IDs returns the held IDs in ascending order. The slice is shared and
// immutable: later deltas build a fresh one, so a caller may keep it (for
// example as the id column of a published allocation).
func (r *Roster) IDs() []int {
	if len(r.pending) == 0 {
		return r.ids
	}
	var fresh []int
	for id, held := range r.pending {
		if held {
			fresh = append(fresh, id)
		}
	}
	slices.Sort(fresh)
	out := make([]int, 0, len(r.jobs))
	for _, id := range r.ids {
		for len(fresh) > 0 && fresh[0] < id {
			out, fresh = append(out, fresh[0]), fresh[1:]
		}
		if _, changed := r.pending[id]; !changed {
			out = append(out, id) // held ids that changed come from fresh
		}
	}
	r.ids = append(out, fresh...)
	clear(r.pending)
	return r.ids
}

// Ordered returns the held jobs in ascending-ID order.
func (r *Roster) Ordered() []Job {
	ids := r.IDs()
	out := make([]Job, len(ids))
	for i, id := range ids {
		out[i] = r.jobs[id]
	}
	return out
}

// Columns is one round's allocation in columnar form, rows in ascending-ID
// order: row i is client IDs[i], with effective throughput EffThr[i] and
// per-type time fractions X[i*w:(i+1)*w] for w = len(X)/len(IDs). X is nil
// for policies without per-type rows (space sharing); Stale is nil unless
// the sharded coordinator set it, and then flags rows carried over from an
// earlier round. The layout matches the shard wire, so every layer passes
// it along instead of rebuilding it. A published Columns is never mutated.
type Columns struct {
	IDs    []int
	EffThr []float64
	X      []float64
	Stale  []bool
}

// Row returns row i's per-type time fractions (nil when X is).
func (a *Columns) Row(i int) []float64 {
	if len(a.X) == 0 {
		return nil
	}
	w := len(a.X) / len(a.IDs)
	return a.X[i*w : (i+1)*w : (i+1)*w]
}

// Find returns the row of client id by binary search.
func (a *Columns) Find(id int) (int, bool) {
	i := sort.SearchInts(a.IDs, id)
	return i, i < len(a.IDs) && a.IDs[i] == id
}

// For lays the columns out in the order of jobs, as a row-per-job
// Allocation (the batch policy shape). Every job must have a row.
func (a *Columns) For(jobs []Job) *Allocation {
	out := &Allocation{EffThr: make([]float64, len(jobs))}
	if a.X != nil {
		out.X = make([][]float64, len(jobs))
	}
	for pos, j := range jobs {
		i, _ := a.Find(j.ID)
		out.EffThr[pos] = a.EffThr[i]
		if out.X != nil {
			out.X[pos] = slices.Clone(a.Row(i))
		}
	}
	return out
}

// Mutable is the delta surface of a round engine.
type Mutable interface {
	Upsert(Job)
	Remove(id int) bool
	// IDs returns the held client IDs in ascending order.
	IDs() []int
}

// SyncTo makes e hold exactly the jobs of list, for callers that have a
// full client list rather than deltas (batch round loops, a worker's
// registry reconcile). It upserts in list order, then removes the absent
// clients in ascending-ID order, and reports how many listed clients e
// already held, how many it added, and how many it removed. Unchanged jobs
// are no-ops in the engines, so warm state survives a sync.
func SyncTo(e Mutable, list []Job) (kept, added, removed int) {
	held := e.IDs()
	listed := make(map[int]bool, len(list))
	for _, j := range list {
		if !listed[j.ID] {
			listed[j.ID] = true
			if i := sort.SearchInts(held, j.ID); i < len(held) && held[i] == j.ID {
				kept++
			} else {
				added++
			}
		}
		e.Upsert(j)
	}
	for _, id := range held {
		if !listed[id] {
			e.Remove(id)
			removed++
		}
	}
	return kept, added, removed
}
