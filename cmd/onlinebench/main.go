// Command onlinebench measures the online allocation engine: per-round
// latency of the persistent-model mutation path (mutate in place, re-solve
// warm or via the dual simplex) against a cold rebuild-and-solve baseline,
// over round sequences from all three of the paper's case studies swept
// across dirty fractions (the share of clients whose data changes per
// round): cluster job churn, a full-dirty capacity-jitter sequence whose
// rhs-only deltas ride the dual simplex, lb shard-load jitter, TE
// demand-churn (amount-only shifts — again pure rhs deltas), and the
// pair-block space-sharing policy under weight churn. Each record splits
// the per-round time into model build/mutation time and LP pivot time, so
// the constant-factor win of mutate-over-rebuild is visible next to the
// pivot win of warm/dual starts. It writes a JSON regression record
// (BENCH_online.json via `make bench-online`) so every PR has an
// online-path perf trajectory to compare against.
//
// Usage:
//
//	onlinebench [-o BENCH_online.json] [-reps 3] [-rounds 6] [-seed 1] [-trace trace.json]
//
// -trace writes a Chrome trace-event JSON (chrome://tracing / Perfetto) of
// the warm engines' round spans: each online.round contains its per-partition
// online.subsolve lanes, which in turn contain splice/rebuild/refresh spans
// and the lp.solve span tree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"pop/internal/cluster"
	"pop/internal/lb"
	"pop/internal/lp"
	"pop/internal/obs"
	"pop/internal/online"
	"pop/internal/te"
	"pop/internal/tm"
	"pop/internal/topo"
)

// benchObs is non-nil only under -trace; the warm engines carry it so their
// rounds emit span trees into the run trace (cold baselines stay untraced).
var benchObs *obs.Observer

type record struct {
	Family        string  `json:"family"`
	Clients       int     `json:"clients"`
	K             int     `json:"k"`
	DirtyFrac     float64 `json:"dirty_frac"`
	Rounds        int     `json:"rounds"`
	ColdNsPerRnd  int64   `json:"cold_ns_per_round"`
	WarmNsPerRnd  int64   `json:"warm_ns_per_round"`
	Speedup       float64 `json:"speedup"`
	WarmSubSolves int     `json:"warm_sub_solves"`
	ColdSubSolves int     `json:"cold_sub_solves"`
	WarmHits      int     `json:"warm_hits"`
	// Per-round build (model construction/mutation) vs pivot (LP solver)
	// time split, from the engines' own accounting of the timed rounds.
	WarmBuildNs int64 `json:"warm_build_ns_per_round"`
	WarmPivotNs int64 `json:"warm_pivot_ns_per_round"`
	ColdBuildNs int64 `json:"cold_build_ns_per_round"`
	ColdPivotNs int64 `json:"cold_pivot_ns_per_round"`
	// DualPivots counts dual simplex pivots across the warm engine's timed
	// rounds — nonzero only where deltas were rhs/bound-only.
	DualPivots int  `json:"warm_dual_pivots"`
	ObjAgree   bool `json:"objectives_agree"`
	// MaxObjDelta is the largest |warm - cold| objective gap seen.
	MaxObjDelta float64 `json:"max_obj_delta"`
}

type report struct {
	GeneratedAt    string   `json:"generated_at"`
	Seed           int64    `json:"seed"`
	Reps           int      `json:"reps"`
	GeomeanSpeedup float64  `json:"geomean_speedup"`
	Records        []record `json:"records"`
}

func main() {
	var (
		out      = flag.String("o", "BENCH_online.json", "output file ('-' for stdout)")
		reps     = flag.Int("reps", 3, "sequence repetitions (best total per engine is kept)")
		rounds   = flag.Int("rounds", 6, "timed rounds per sequence")
		seed     = flag.Int64("seed", 1, "workload seed")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the warm engines' round spans")
	)
	flag.Parse()

	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace()
		benchObs = &obs.Observer{Trace: tr}
	}
	runSpan := benchObs.Span("run")

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        *seed,
		Reps:        *reps,
	}
	fracs := []float64{0.05, 0.25, 1.0}
	for _, f := range fracs {
		rep.Records = append(rep.Records, benchCluster(f, *rounds, *reps, *seed))
	}
	rep.Records = append(rep.Records, benchCapacity(*rounds, *reps, *seed))
	for _, f := range fracs {
		rep.Records = append(rep.Records, benchLB(f, *rounds, *reps, *seed))
	}
	for _, f := range fracs {
		rep.Records = append(rep.Records, benchTE(f, *rounds, *reps, *seed))
	}
	for _, f := range fracs {
		rep.Records = append(rep.Records, benchSpaceSharing(f, *rounds, *reps, *seed))
	}
	runSpan.End()
	if tr != nil {
		if err := tr.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	logGeo := 0.0
	for _, r := range rep.Records {
		fmt.Fprintf(os.Stderr, "%-11s clients=%-4d k=%-2d dirty=%-5.2f cold=%-12v warm=%-12v (build %-10v pivot %-10v dual=%-4d) speedup=%.2fx agree=%v\n",
			r.Family, r.Clients, r.K, r.DirtyFrac,
			time.Duration(r.ColdNsPerRnd), time.Duration(r.WarmNsPerRnd),
			time.Duration(r.WarmBuildNs), time.Duration(r.WarmPivotNs), r.DualPivots,
			r.Speedup, r.ObjAgree)
		logGeo += math.Log(r.Speedup)
	}
	rep.GeomeanSpeedup = math.Exp(logGeo / float64(len(rep.Records)))
	fmt.Fprintf(os.Stderr, "geomean speedup: %.2fx\n", rep.GeomeanSpeedup)

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "onlinebench:", err)
		os.Exit(1)
	}
}

// split captures the engine-side accounting of a timed window.
type split struct {
	subSolves, warmHits, dualPivots int
	buildNs, solveNs                int64
}

func delta(after, before online.Stats) split {
	return split{
		subSolves:  after.SubSolves - before.SubSolves,
		warmHits:   after.WarmHits - before.WarmHits,
		dualPivots: after.DualPivots - before.DualPivots,
		buildNs:    after.BuildNs - before.BuildNs,
		solveNs:    after.SolveNs - before.SolveNs,
	}
}

// bookWarm and bookCold store the engine-side split of the best repetition
// into the record.
func bookWarm(rec *record, s split, rounds int) {
	rec.WarmSubSolves = s.subSolves
	rec.WarmHits = s.warmHits
	rec.DualPivots = s.dualPivots
	rec.WarmBuildNs = s.buildNs / int64(rounds)
	rec.WarmPivotNs = s.solveNs / int64(rounds)
}

func bookCold(rec *record, s split, rounds int) {
	rec.ColdSubSolves = s.subSolves
	rec.ColdBuildNs = s.buildNs / int64(rounds)
	rec.ColdPivotNs = s.solveNs / int64(rounds)
}

// benchCluster replays a job-churn round sequence (weight changes and
// depart+arrive churn over dirtyFrac of the jobs) against a mutate-in-place
// engine and a cold rebuild engine.
func benchCluster(dirtyFrac float64, rounds, reps int, seed int64) record {
	const nJobs, k = 192, 8
	c := cluster.NewCluster(48, 48, 48)
	rec := record{Family: "cluster", Clients: nJobs, K: k, DirtyFrac: dirtyFrac, Rounds: rounds, ObjAgree: true}
	bestWarm, bestCold := int64(math.MaxInt64), int64(math.MaxInt64)

	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(seed))
		jobs := cluster.GenerateJobs(nJobs, seed+2, 0.2)
		warm, err := online.NewClusterEngine(c, online.MaxMinFairness, online.Options{K: k, Obs: benchObs}, lp.Options{})
		die(err)
		cold, err := online.NewClusterEngine(c, online.MaxMinFairness, online.Options{K: k, NoWarmStart: true}, lp.Options{})
		die(err)
		nextID := nJobs
		live := make([]cluster.Job, len(jobs))
		copy(live, jobs)
		for _, j := range live {
			warm.Upsert(j)
			cold.Upsert(j)
		}
		// Untimed warm-up round: both engines reach steady state.
		solve(warm, c)
		cold.MarkAllDirty()
		solve(cold, c)
		warm0, cold0 := warm.Stats(), cold.Stats()

		var warmNs, coldNs int64
		for round := 0; round < rounds; round++ {
			nTouch := int(math.Max(1, dirtyFrac*nJobs))
			for t := 0; t < nTouch; t++ {
				i := rng.Intn(len(live))
				if rng.Float64() < 0.7 { // weight change
					live[i].Weight = 0.5 + rng.Float64()*2
				} else { // churn: depart + fresh arrival
					warm.Remove(live[i].ID)
					cold.Remove(live[i].ID)
					nj := cluster.GenerateJobs(1, seed+int64(nextID), 0.2)[0]
					nj.ID = nextID
					nextID++
					live[i] = nj
				}
				warm.Upsert(live[i])
				cold.Upsert(live[i])
			}
			start := time.Now()
			solve(warm, c)
			warmNs += time.Since(start).Nanoseconds()

			start = time.Now()
			cold.MarkAllDirty()
			solve(cold, c)
			coldNs += time.Since(start).Nanoseconds()

			if d := math.Abs(warm.Objective() - cold.Objective()); d > rec.MaxObjDelta {
				rec.MaxObjDelta = d
			}
		}
		if warmNs < bestWarm {
			bestWarm = warmNs
			bookWarm(&rec, delta(warm.Stats(), warm0), rounds)
		}
		if coldNs < bestCold {
			bestCold = coldNs
			bookCold(&rec, delta(cold.Stats(), cold0), rounds)
		}
	}
	rec.WarmNsPerRnd = bestWarm / int64(rounds)
	rec.ColdNsPerRnd = bestCold / int64(rounds)
	rec.ObjAgree = rec.MaxObjDelta <= 1e-6
	if rec.WarmNsPerRnd > 0 {
		rec.Speedup = float64(rec.ColdNsPerRnd) / float64(rec.WarmNsPerRnd)
	}
	return rec
}

// benchCapacity replays the autoscaling regime: every round the cluster's
// capacity jitters, dirtying all sub-problems at once — but the deltas are
// pure right-hand sides under MinMakespan, so the mutation engine re-solves
// each sub-problem with a handful of dual simplex pivots from the previous
// basis while the cold engine rebuilds and runs phase 1 from scratch. This
// is the full-dirty sweep the dual simplex exists for.
func benchCapacity(rounds, reps int, seed int64) record {
	const nJobs, k = 192, 8
	base := [3]float64{48, 48, 48}
	rec := record{Family: "cluster-cap", Clients: nJobs, K: k, DirtyFrac: 1, Rounds: rounds, ObjAgree: true}
	bestWarm, bestCold := int64(math.MaxInt64), int64(math.MaxInt64)

	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(seed + 11))
		jobs := cluster.GenerateJobs(nJobs, seed+2, 0.2)
		c := cluster.NewCluster(base[0], base[1], base[2])
		warm, err := online.NewClusterEngine(c, online.MinMakespan, online.Options{K: k, Obs: benchObs}, lp.Options{})
		die(err)
		cold, err := online.NewClusterEngine(c, online.MinMakespan, online.Options{K: k, NoWarmStart: true}, lp.Options{})
		die(err)
		for _, j := range jobs {
			warm.Upsert(j)
			cold.Upsert(j)
		}
		solve(warm, c)
		cold.MarkAllDirty()
		solve(cold, c)
		warm0, cold0 := warm.Stats(), cold.Stats()

		var warmNs, coldNs int64
		for round := 0; round < rounds; round++ {
			next := cluster.NewCluster(
				base[0]*(0.8+0.4*rng.Float64()),
				base[1]*(0.8+0.4*rng.Float64()),
				base[2]*(0.8+0.4*rng.Float64()))

			start := time.Now()
			solve(warm, next)
			warmNs += time.Since(start).Nanoseconds()

			start = time.Now()
			cold.MarkAllDirty()
			solve(cold, next)
			coldNs += time.Since(start).Nanoseconds()

			if d := math.Abs(warm.Objective() - cold.Objective()); d > rec.MaxObjDelta {
				rec.MaxObjDelta = d
			}
		}
		if warmNs < bestWarm {
			bestWarm = warmNs
			bookWarm(&rec, delta(warm.Stats(), warm0), rounds)
		}
		if coldNs < bestCold {
			bestCold = coldNs
			bookCold(&rec, delta(cold.Stats(), cold0), rounds)
		}
	}
	rec.WarmNsPerRnd = bestWarm / int64(rounds)
	rec.ColdNsPerRnd = bestCold / int64(rounds)
	rec.ObjAgree = rec.MaxObjDelta <= 1e-6
	if rec.WarmNsPerRnd > 0 {
		rec.Speedup = float64(rec.ColdNsPerRnd) / float64(rec.WarmNsPerRnd)
	}
	return rec
}

// benchTE replays the WAN re-planning regime: every round dirtyFrac of the
// commodities shift their demand amount over a stable topology. Under
// MaxTotalFlow an amount shift is a single rhs edit on the commodity's cap
// row, so the mutation engine re-solves each dirtied sub-problem with dual
// simplex pivots from the previous basis while the cold engine rebuilds the
// path LP and runs phase 1 from scratch.
func benchTE(dirtyFrac float64, rounds, reps int, seed int64) record {
	const nDemands, k = 192, 4
	tp := topo.GenerateScaled("Deltacom", 0.5)
	rec := record{Family: "te", Clients: nDemands, K: k, DirtyFrac: dirtyFrac, Rounds: rounds, ObjAgree: true}
	bestWarm, bestCold := int64(math.MaxInt64), int64(math.MaxInt64)

	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(seed + 17))
		demands := tm.Generate(tm.Config{
			Nodes: tp.G.N, Commodities: nDemands, Model: tm.Gravity,
			TotalDemand: tp.TotalCapacity() * 0.4, Seed: seed + 5,
		})
		warm, err := online.NewTEEngine(tp, te.MaxTotalFlow, 4, online.Options{K: k, Obs: benchObs}, lp.Options{})
		die(err)
		cold, err := online.NewTEEngine(tp, te.MaxTotalFlow, 4, online.Options{K: k, NoWarmStart: true}, lp.Options{})
		die(err)
		for id, d := range demands {
			warm.Upsert(id, d)
			cold.Upsert(id, d)
		}
		die(warm.Solve())
		cold.MarkAllDirty()
		die(cold.Solve())
		warm0, cold0 := warm.Stats(), cold.Stats()

		var warmNs, coldNs int64
		for round := 0; round < rounds; round++ {
			nTouch := int(math.Max(1, dirtyFrac*nDemands))
			for t := 0; t < nTouch; t++ {
				id := rng.Intn(nDemands)
				demands[id].Amount *= math.Exp(rng.NormFloat64() * 0.25)
				warm.Upsert(id, demands[id])
				cold.Upsert(id, demands[id])
			}
			start := time.Now()
			die(warm.Solve())
			warmNs += time.Since(start).Nanoseconds()

			start = time.Now()
			cold.MarkAllDirty()
			die(cold.Solve())
			coldNs += time.Since(start).Nanoseconds()

			if d := math.Abs(warm.Objective() - cold.Objective()); d > rec.MaxObjDelta {
				rec.MaxObjDelta = d
			}
		}
		if warmNs < bestWarm {
			bestWarm = warmNs
			bookWarm(&rec, delta(warm.Stats(), warm0), rounds)
		}
		if coldNs < bestCold {
			bestCold = coldNs
			bookCold(&rec, delta(cold.Stats(), cold0), rounds)
		}
	}
	rec.WarmNsPerRnd = bestWarm / int64(rounds)
	rec.ColdNsPerRnd = bestCold / int64(rounds)
	rec.ObjAgree = rec.MaxObjDelta <= 1e-6
	if rec.WarmNsPerRnd > 0 {
		rec.Speedup = float64(rec.ColdNsPerRnd) / float64(rec.WarmNsPerRnd)
	}
	return rec
}

// benchSpaceSharing replays weight churn through the pair-block
// space-sharing policy — the quadratic-variable regime of Figure 6, online:
// a weight change touches only the job's own fairness row, so the mutation
// engine patches a handful of coefficients in a model whose pair blocks it
// never rebuilds, while the cold engine reconstructs the whole O(n²/k²)
// slot enumeration every round.
func benchSpaceSharing(dirtyFrac float64, rounds, reps int, seed int64) record {
	const nJobs, k = 96, 4
	c := cluster.NewCluster(24, 24, 24)
	rec := record{Family: "spacesharing", Clients: nJobs, K: k, DirtyFrac: dirtyFrac, Rounds: rounds, ObjAgree: true}
	bestWarm, bestCold := int64(math.MaxInt64), int64(math.MaxInt64)

	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(seed + 23))
		jobs := cluster.GenerateJobs(nJobs, seed+2, 0.1)
		warm, err := online.NewClusterEngine(c, online.SpaceSharing, online.Options{K: k, Obs: benchObs}, lp.Options{})
		die(err)
		cold, err := online.NewClusterEngine(c, online.SpaceSharing, online.Options{K: k, NoWarmStart: true}, lp.Options{})
		die(err)
		live := make([]cluster.Job, len(jobs))
		copy(live, jobs)
		for _, j := range live {
			warm.Upsert(j)
			cold.Upsert(j)
		}
		solve(warm, c)
		cold.MarkAllDirty()
		solve(cold, c)
		warm0, cold0 := warm.Stats(), cold.Stats()

		var warmNs, coldNs int64
		for round := 0; round < rounds; round++ {
			nTouch := int(math.Max(1, dirtyFrac*nJobs))
			for t := 0; t < nTouch; t++ {
				i := rng.Intn(len(live))
				live[i].Weight = 0.5 + rng.Float64()*2
				warm.Upsert(live[i])
				cold.Upsert(live[i])
			}
			start := time.Now()
			solve(warm, c)
			warmNs += time.Since(start).Nanoseconds()

			start = time.Now()
			cold.MarkAllDirty()
			solve(cold, c)
			coldNs += time.Since(start).Nanoseconds()

			if d := math.Abs(warm.Objective() - cold.Objective()); d > rec.MaxObjDelta {
				rec.MaxObjDelta = d
			}
		}
		if warmNs < bestWarm {
			bestWarm = warmNs
			bookWarm(&rec, delta(warm.Stats(), warm0), rounds)
		}
		if coldNs < bestCold {
			bestCold = coldNs
			bookCold(&rec, delta(cold.Stats(), cold0), rounds)
		}
	}
	rec.WarmNsPerRnd = bestWarm / int64(rounds)
	rec.ColdNsPerRnd = bestCold / int64(rounds)
	rec.ObjAgree = rec.MaxObjDelta <= 1e-6
	if rec.WarmNsPerRnd > 0 {
		rec.Speedup = float64(rec.ColdNsPerRnd) / float64(rec.WarmNsPerRnd)
	}
	return rec
}

// benchLB replays a load-jitter round sequence (dirtyFrac of shard loads
// shift per round) through the shard-balancing engines; both see the warm
// engine's placement trajectory, as lb.RunRounds would feed it back.
func benchLB(dirtyFrac float64, rounds, reps int, seed int64) record {
	const nShards, nServers, k = 96, 16, 4
	rec := record{Family: "lb", Clients: nShards, K: k, DirtyFrac: dirtyFrac, Rounds: rounds, ObjAgree: true}
	bestWarm, bestCold := int64(math.MaxInt64), int64(math.MaxInt64)

	for rep := 0; rep < reps; rep++ {
		rng := rand.New(rand.NewSource(seed + 7))
		inst := lb.NewInstance(nShards, nServers, 0.05, seed+3)
		warm, err := online.NewLBEngine(online.Options{K: k, Obs: benchObs}, lp.Options{})
		die(err)
		cold, err := online.NewLBEngine(online.Options{K: k, NoWarmStart: true}, lp.Options{})
		die(err)
		a, err := warm.Step(inst)
		die(err)
		cold.MarkAllDirty()
		_, err = cold.Step(inst)
		die(err)
		inst.Placement = a.Placed
		warm0, cold0 := warm.Stats(), cold.Stats()

		var warmNs, coldNs int64
		for round := 0; round < rounds; round++ {
			nTouch := int(math.Max(1, dirtyFrac*nShards))
			for t := 0; t < nTouch; t++ {
				i := rng.Intn(nShards)
				inst.Shards[i].Load *= math.Exp(rng.NormFloat64() * 0.25)
			}
			start := time.Now()
			a, err := warm.Step(inst)
			die(err)
			warmNs += time.Since(start).Nanoseconds()

			start = time.Now()
			cold.MarkAllDirty()
			_, err = cold.Step(inst)
			die(err)
			coldNs += time.Since(start).Nanoseconds()

			if d := math.Abs(warm.Objective() - cold.Objective()); d > rec.MaxObjDelta {
				rec.MaxObjDelta = d
			}
			inst.Placement = a.Placed
		}
		if warmNs < bestWarm {
			bestWarm = warmNs
			bookWarm(&rec, delta(warm.Stats(), warm0), rounds)
		}
		if coldNs < bestCold {
			bestCold = coldNs
			bookCold(&rec, delta(cold.Stats(), cold0), rounds)
		}
	}
	rec.WarmNsPerRnd = bestWarm / int64(rounds)
	rec.ColdNsPerRnd = bestCold / int64(rounds)
	rec.ObjAgree = rec.MaxObjDelta <= 1e-6
	if rec.WarmNsPerRnd > 0 {
		rec.Speedup = float64(rec.ColdNsPerRnd) / float64(rec.WarmNsPerRnd)
	}
	return rec
}

// solve runs one round of a cluster engine over pool (the allocation itself
// is not needed here; the benches read Objective and Stats).
func solve(e *online.ClusterEngine, pool cluster.Cluster) {
	_, err := e.Solve(pool)
	die(err)
}
