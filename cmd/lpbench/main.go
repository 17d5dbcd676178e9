// Command lpbench times the lp solver's Dense and SparseLU backends on the
// case-study-shaped instances from internal/lp/gen and writes a JSON
// regression record (BENCH_lp.json via `make bench-lp`), so every change has
// a perf trajectory to compare against. pivot_ns is the SparseLU solve time
// per pivot: the number the basis-update work lands in, independent of
// pivot-count changes.
//
// Each backend runs -reps timed solves per instance, except that it stops
// repeating on an instance once one solve has run past repBudget: the
// dense backend on the largest TE instance takes minutes per solve, and
// more reps of it add run time, not information. dense_reps and
// sparselu_reps record the solves actually taken.
//
// Usage:
//
//	lpbench [-o BENCH_lp.json] [-reps 3] [-seed 1] [-trace trace.json] [-metrics]
//
// -trace writes a Chrome trace-event JSON (load it in chrome://tracing or
// Perfetto) of every solve's internal spans: standardize, factor/refactor,
// phase 1/2, warm repair.
//
// -metrics dumps the run's accumulated solver counters (refactors, FT
// updates/rejects, drift/fill refactor reasons, ...) to stderr in
// Prometheus text format after the run — the same series popserver exports
// on /metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"pop/internal/lp"
	"pop/internal/lp/gen"
	"pop/internal/obs"
)

// benchObs is non-nil under -trace or -metrics; solver options carry it so
// every timed solve emits its span tree and books its counters.
var benchObs *obs.Observer

type record struct {
	Instance   string  `json:"instance"`
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	Nonzeros   int     `json:"nonzeros"`
	DenseNs    int64   `json:"dense_ns"`
	SparseLUNs int64   `json:"sparselu_ns"`
	DenseReps  int     `json:"dense_reps"`
	SparseReps int     `json:"sparselu_reps"`
	Speedup    float64 `json:"speedup"`
	Objective  float64 `json:"objective"`
	ObjAgree   bool    `json:"objectives_agree"`
	Iterations int     `json:"iterations_sparselu"`
	PivotNs    float64 `json:"pivot_ns"`
}

type report struct {
	GeneratedAt string   `json:"generated_at"`
	Seed        int64    `json:"seed"`
	Reps        int      `json:"reps"`
	Records     []record `json:"records"`
}

func main() {
	var (
		out      = flag.String("o", "BENCH_lp.json", "output file ('-' for stdout)")
		reps     = flag.Int("reps", 3, "timed repetitions per backend (best is kept; fewer once one solve runs past 20s)")
		seed     = flag.Int64("seed", 1, "instance generator seed")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON of the run's solver spans")
		metrics  = flag.Bool("metrics", false, "dump accumulated solver metrics (Prometheus text) to stderr after the run")
	)
	flag.Parse()

	var tr *obs.Trace
	var reg *obs.Registry
	if *traceOut != "" {
		tr = obs.NewTrace()
	}
	if *metrics {
		reg = obs.NewRegistry()
	}
	if tr != nil || reg != nil {
		benchObs = &obs.Observer{Trace: tr, Metrics: reg}
	}
	runSpan := benchObs.Span("run")

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        *seed,
		Reps:        *reps,
	}
	for _, in := range gen.All(*seed) {
		r := record{
			Instance: in.Name(),
			Rows:     in.P.NumConstraints(),
			Cols:     in.P.NumVariables(),
			Nonzeros: in.P.NumNonzeros(),
		}
		var dObj, sObj float64
		r.DenseNs, r.DenseReps, dObj, _ = timeSolve(in.P, lp.Options{Backend: lp.Dense}, *reps)
		r.SparseLUNs, r.SparseReps, sObj, r.Iterations = timeSolve(in.P, lp.Options{Backend: lp.SparseLU}, *reps)
		r.Objective = sObj
		r.ObjAgree = approxEq(dObj, sObj, 1e-6)
		if r.SparseLUNs > 0 {
			r.Speedup = float64(r.DenseNs) / float64(r.SparseLUNs)
		}
		if r.Iterations > 0 {
			r.PivotNs = float64(r.SparseLUNs) / float64(r.Iterations)
		}
		fmt.Fprintf(os.Stderr, "%-16s rows=%-5d dense=%-12v sparselu=%-12v speedup=%.2fx pivot=%.0fns agree=%v\n",
			r.Instance, r.Rows, time.Duration(r.DenseNs), time.Duration(r.SparseLUNs),
			r.Speedup, r.PivotNs, r.ObjAgree)
		rep.Records = append(rep.Records, r)
	}
	runSpan.End()
	if tr != nil {
		if err := tr.WriteFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if reg != nil {
		reg.WritePrometheus(os.Stderr)
	}
}

// repBudget is the solve time past which a backend stops repeating on an
// instance.
const repBudget = 20 * time.Second

// timeSolve returns the best wall time over up to reps solves and the number
// taken (fewer once a solve runs past repBudget), plus the objective and
// iteration count for cross-checking.
func timeSolve(p *lp.Problem, opts lp.Options, reps int) (ns int64, taken int, obj float64, iters int) {
	opts.Obs = benchObs
	best := int64(1<<63 - 1)
	for taken < reps {
		start := time.Now()
		sol, err := p.SolveWithOptions(opts)
		el := time.Since(start).Nanoseconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpbench: %v backend failed: %v\n", opts.Backend, err)
			os.Exit(1)
		}
		if sol.Status != lp.Optimal {
			fmt.Fprintf(os.Stderr, "lpbench: %v backend failed: status=%v\n", opts.Backend, sol.Status)
			os.Exit(1)
		}
		if el < best {
			best = el
		}
		obj = sol.Objective
		iters = sol.Iterations
		taken++
		if time.Duration(el) > repBudget {
			break
		}
	}
	return best, taken, obj, iters
}

func approxEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}
