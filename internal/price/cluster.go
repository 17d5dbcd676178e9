package price

import (
	"fmt"
	"math"

	"pop/internal/cluster"
)

// ClusterPolicy selects which §4.1 scheduling objective a cluster-domain
// price solve approximates.
type ClusterPolicy int8

const (
	// MaxMinFairness approximates the heterogeneity-aware least-attained-
	// service policy through an alpha-fair utility (maxMinAlpha) over the
	// normalized throughput ratios.
	MaxMinFairness ClusterPolicy = iota
	// ProportionalFairness is the §4.1 sum-of-logs policy, solved exactly
	// in the limit (log utility is the Eisenberg-Gale market).
	ProportionalFairness
)

func (p ClusterPolicy) String() string {
	switch p {
	case MaxMinFairness:
		return "max-min-fairness"
	case ProportionalFairness:
		return "proportional-fairness"
	}
	return fmt.Sprintf("ClusterPolicy(%d)", int8(p))
}

// clusterDomain prices the GPU-type capacities: client j's best response
// maximizes φ(Σ_i t_ji·x_i) − Σ_i z_j·price_i·x_i over Σ_i x_i ≤ 1, x ≥ 0,
// where t is the (policy-normalized) throughput row. By the KKT conditions
// the optimum is supported on at most two resources, so enumerating
// singleton and pair supports is exact — each call is O(r²) closed forms,
// no solver.
type clusterDomain struct {
	t     []float64 // n×r row-major normalized throughputs
	z     []float64 // per-job resource scale z_j
	w     []float64 // log-utility weights (alpha == 0)
	cap   []float64
	n, r  int
	alpha float64 // > 0: alpha-fair utility u^(1-α)/(1-α); 0: w·log(u)
	hint  float64

	// Alpha-fair fast path (alpha > 0): the per-iteration cost of a best
	// response is dominated by math.Pow, so everything price-independent is
	// hoisted here at build time —
	//   tPow[j][i]  = t_ji^(1/α − 1)  (interior singleton demand factor)
	//   tUtil[j][i] = t_ji^(1−α)      (clamped singleton utility)
	//   zRoot[j]    = z_j^(−1/α)
	// and pRoot_i = price_i^(−1/α) is refreshed once per iteration by
	// PrepareIteration instead of once per client. When α is a power of two
	// the remaining per-pair root s^(−1/α) runs as a √-chain (sqrtSteps
	// hardware square roots) instead of a Pow call.
	tPow, tUtil []float64
	zRoot       []float64
	pRoot       []float64
	// Pair supports factor the same way: the stationary utility of pair
	// (a, b) is u = (dc/dt)^(−1/α) = z^(−1/α)·|Δp|^(−1/α)·|Δt|^(1/α), so
	// dtRoot holds |t_a−t_b|^(1/α) per client pair (build time) and
	// pairRoot |p_a−p_b|^(−1/α) per pair (each PrepareIteration) — no roots
	// remain in the per-client hot path.
	dtRoot    []float64 // n×npairs row-major
	pairRoot  []float64 // npairs
	npairs    int
	sqrtSteps int // k with α == 2^k, or 0 to fall back to math.Pow
}

func (d *clusterDomain) Dims() (int, int)       { return d.n, d.r }
func (d *clusterDomain) Capacity(out []float64) { copy(out, d.cap) }
func (d *clusterDomain) DemandHint() float64    { return d.hint }

func (d *clusterDomain) phi(j int, u float64) float64 {
	if u <= 0 {
		return math.Inf(-1)
	}
	if d.alpha > 0 {
		return math.Pow(u, 1-d.alpha) / (1 - d.alpha)
	}
	return d.w[j] * math.Log(u)
}

// invPhiPrime inverts the marginal utility: the u with φ'(u) = s, s > 0.
func (d *clusterDomain) invPhiPrime(j int, s float64) float64 {
	if d.alpha > 0 {
		return math.Pow(s, -1/d.alpha)
	}
	return d.w[j] / s
}

func (d *clusterDomain) BestResponse(j int, price []float64, out []float64) {
	if d.alpha > 0 {
		d.bestResponseAlpha(j, price, out)
		return
	}
	r := d.r
	t := d.t[j*r : (j+1)*r]
	z := d.z[j]
	for i := range out {
		out[i] = 0
	}
	bestVal := math.Inf(-1)
	bestA, bestB := -1, -1
	var xA, xB float64

	// Singletons: t_i·φ'(t_i·x) = c_i, clamped to the time budget.
	for i := 0; i < r; i++ {
		if t[i] <= 0 {
			continue
		}
		ci := z * price[i]
		x := 1.0
		if ci > 0 {
			x = math.Min(1, d.invPhiPrime(j, ci/t[i])/t[i])
		}
		if x <= 0 {
			continue
		}
		if v := d.phi(j, t[i]*x) - ci*x; v > bestVal {
			bestVal, bestA, bestB, xA, xB = v, i, -1, x, 0
		}
	}
	// Pairs on the time boundary x_a + x_b = 1: stationarity gives
	// φ'(u*) = (c_a-c_b)/(t_a-t_b); interior mixes only.
	for a := 0; a < r; a++ {
		if t[a] <= 0 {
			continue
		}
		ca := z * price[a]
		for b := a + 1; b < r; b++ {
			if t[b] <= 0 {
				continue
			}
			cb := z * price[b]
			dt, dc := t[a]-t[b], ca-cb
			if dt == 0 || dc == 0 || (dt > 0) != (dc > 0) {
				continue // degenerate or dominated: singletons cover it
			}
			u := d.invPhiPrime(j, dc/dt)
			xa := (u - t[b]) / dt
			if xa <= 0 || xa >= 1 {
				continue // boundary cases are the singleton candidates
			}
			xb := 1 - xa
			if v := d.phi(j, t[a]*xa+t[b]*xb) - ca*xa - cb*xb; v > bestVal {
				bestVal, bestA, bestB, xA, xB = v, a, b, xa, xb
			}
		}
	}
	if bestA >= 0 {
		out[bestA] = z * xA
		if bestB >= 0 {
			out[bestB] = z * xB
		}
	}
}

// PrepareIteration caches price_i^(−1/α) for the iteration's best responses
// (alpha-fair fast path). Solve calls it single-threaded before each fan-out.
func (d *clusterDomain) PrepareIteration(price []float64) {
	if d.alpha <= 0 {
		return
	}
	for i, p := range price {
		d.pRoot[i] = d.invAlphaRoot(p)
	}
	pi := 0
	for a := 0; a < d.r; a++ {
		for b := a + 1; b < d.r; b++ {
			if dp := math.Abs(price[a] - price[b]); dp > 0 {
				d.pairRoot[pi] = d.invAlphaRoot(dp)
			} else {
				d.pairRoot[pi] = 0 // equal prices: pair degenerate, skipped
			}
			pi++
		}
	}
}

// invAlphaRoot computes s^(−1/α): a √-chain when α is a power of two (the
// default 32 costs five hardware square roots), math.Pow otherwise.
func (d *clusterDomain) invAlphaRoot(s float64) float64 {
	if d.sqrtSteps > 0 {
		for k := 0; k < d.sqrtSteps; k++ {
			s = math.Sqrt(s)
		}
		return 1 / s
	}
	return math.Pow(s, -1/d.alpha)
}

// bestResponseAlpha is the alpha-fair best response with all price- and
// client-invariant powers hoisted (see the clusterDomain field comment).
// Values compare through the stationarity identity u^(1−α) = u·φ'(u), so a
// candidate costs multiplies — plus one root per admissible pair.
func (d *clusterDomain) bestResponseAlpha(j int, price []float64, out []float64) {
	r := d.r
	t := d.t[j*r : (j+1)*r]
	tPow := d.tPow[j*r : (j+1)*r]
	tUtil := d.tUtil[j*r : (j+1)*r]
	z := d.z[j]
	zr := d.zRoot[j]
	for i := range out {
		out[i] = 0
	}
	// φ(u) − cost at the interior stationary point φ'(u) = s reduces to
	// (α/(1−α))·u·s − K, so candidates compare without evaluating powers.
	scale := d.alpha / (1 - d.alpha)
	bestVal := math.Inf(-1)
	bestA, bestB := -1, -1
	var xA, xB float64

	for i := 0; i < r; i++ {
		if t[i] <= 0 {
			continue
		}
		ci := z * price[i]
		// Interior singleton demand: x = (c_i/t_i)^(−1/α)/t_i, factored as
		// z^(−1/α)·p_i^(−1/α)·t_i^(1/α−1).
		x := zr * d.pRoot[i] * tPow[i]
		var v float64
		if x < 1 {
			if x <= 0 {
				continue
			}
			// v = (α/(1−α))·u·(c_i/t_i) at stationarity, u = t_i·x.
			v = scale * t[i] * x * (ci / t[i])
		} else {
			// Clamped to the full time budget: v = t_i^(1−α)/(1−α) − c_i.
			x = 1
			v = tUtil[i]/(1-d.alpha) - ci
		}
		if v > bestVal {
			bestVal, bestA, bestB, xA, xB = v, i, -1, x, 0
		}
	}
	dtRoot := d.dtRoot[j*d.npairs : (j+1)*d.npairs]
	pi := 0
	for a := 0; a < r; a++ {
		ca := z * price[a]
		for b := a + 1; b < r; b++ {
			rt := dtRoot[pi] * d.pairRoot[pi]
			pi++
			if rt == 0 || t[a] <= 0 || t[b] <= 0 {
				continue
			}
			cb := z * price[b]
			dt, dc := t[a]-t[b], ca-cb
			if dt == 0 || dc == 0 || (dt > 0) != (dc > 0) {
				continue // degenerate or dominated: singletons cover it
			}
			s := dc / dt
			u := zr * rt
			xa := (u - t[b]) / dt
			if xa <= 0 || xa >= 1 {
				continue // boundary cases are the singleton candidates
			}
			// v = (α/(1−α))·u·s − K with K = c_b − t_b·s.
			if v := scale*u*s - (cb - t[b]*s); v > bestVal {
				bestVal, bestA, bestB, xA, xB = v, a, b, xa, 1-xa
			}
		}
	}
	if bestA >= 0 {
		out[bestA] = z * xA
		if bestB >= 0 {
			out[bestB] = z * xB
		}
	}
}

// ScaleElasticity reports the market's aggregate demand elasticity under
// a uniform price rescale: interior alpha-fair demand scales as p^(−1/α),
// and the log-utility (prop-fair) demand as p^(−1), so Solve's common-mode
// Newton rescale is exact in the interior for both policies.
func (d *clusterDomain) ScaleElasticity() float64 {
	if d.alpha > 0 {
		return d.alpha
	}
	return 1
}

// prepareAlpha fills the alpha-fair fast-path caches.
func (d *clusterDomain) prepareAlpha() {
	if d.alpha <= 0 {
		return
	}
	d.tPow = make([]float64, len(d.t))
	d.tUtil = make([]float64, len(d.t))
	d.zRoot = make([]float64, d.n)
	d.pRoot = make([]float64, d.r)
	d.npairs = d.r * (d.r - 1) / 2
	d.dtRoot = make([]float64, d.n*d.npairs)
	d.pairRoot = make([]float64, d.npairs)
	if a := d.alpha; a == math.Trunc(a) && a >= 2 {
		for k, v := 0, a; v >= 2; k, v = k+1, v/2 {
			if v == 2 {
				d.sqrtSteps = k + 1
				break
			}
			if math.Mod(v, 2) != 0 {
				break
			}
		}
	}
	for idx, t := range d.t {
		if t > 0 {
			d.tPow[idx] = math.Pow(t, 1/d.alpha-1)
			d.tUtil[idx] = math.Pow(t, 1-d.alpha)
		}
	}
	for j, z := range d.z {
		if z > 0 {
			d.zRoot[j] = d.invAlphaRoot(z)
		}
	}
	for j := 0; j < d.n; j++ {
		t := d.t[j*d.r : (j+1)*d.r]
		pi := 0
		for a := 0; a < d.r; a++ {
			for b := a + 1; b < d.r; b++ {
				if dt := math.Abs(t[a] - t[b]); dt > 0 {
					// |Δt|^(1/α) = 1/invAlphaRoot(|Δt|).
					d.dtRoot[j*d.npairs+pi] = 1 / d.invAlphaRoot(dt)
				}
				pi++
			}
		}
	}
}

// newMaxMinDomain normalizes throughputs the way the max-min LP does —
// t̃_ji = T_ji/(w_j·eqThr_j·z_j), so a unit of utility is a unit of the
// normalized ratio the policy maximizes the minimum of — and applies the
// alpha-fair utility. Degenerate jobs (zero equal-share throughput) get a
// zero row and demand nothing, mirroring the LP skipping their fair row.
func newMaxMinDomain(jobs []cluster.Job, c cluster.Cluster, alpha float64) *clusterDomain {
	n, r := len(jobs), c.NumTypes()
	d := &clusterDomain{
		t:     make([]float64, n*r),
		z:     make([]float64, n),
		cap:   append([]float64(nil), c.NumGPUs...),
		n:     n,
		r:     r,
		alpha: alpha,
	}
	eq := cluster.EqualShare(jobs, c)
	for idx, j := range jobs {
		d.z[idx] = j.Scale
		d.hint += j.Scale
		denom := j.Weight * cluster.EffectiveThroughput(j, eq[idx]) * j.Scale
		if denom <= 0 {
			continue
		}
		for i := 0; i < r; i++ {
			d.t[idx*r+i] = j.Throughput[i] / denom
		}
	}
	d.prepareAlpha()
	return d
}

// newPropFairDomain uses raw throughputs with the weighted log utility —
// the Eisenberg-Gale market whose equilibrium is the proportional-fair
// optimum.
func newPropFairDomain(jobs []cluster.Job, c cluster.Cluster) *clusterDomain {
	n, r := len(jobs), c.NumTypes()
	d := &clusterDomain{
		t:   make([]float64, n*r),
		z:   make([]float64, n),
		w:   make([]float64, n),
		cap: append([]float64(nil), c.NumGPUs...),
		n:   n,
		r:   r,
	}
	for idx, j := range jobs {
		d.z[idx] = j.Scale
		d.w[idx] = j.Weight
		d.hint += j.Scale
		for i := 0; i < r; i++ {
			d.t[idx*r+i] = j.Throughput[i]
		}
	}
	return d
}

// SolveMaxMin approximates cluster.MaxMinFairness by price discovery: no
// LP, per-job closed-form best responses. The returned Solution carries the
// prices (warm start for the next round) and convergence accounting.
func SolveMaxMin(jobs []cluster.Job, c cluster.Cluster, opts Options) (*cluster.Allocation, *Solution, error) {
	return solveAllocation(MaxMinFairness, jobs, c, opts)
}

// SolvePropFair approximates cluster.ProportionalFairness by price
// discovery over the Eisenberg-Gale market.
func SolvePropFair(jobs []cluster.Job, c cluster.Cluster, opts Options) (*cluster.Allocation, *Solution, error) {
	return solveAllocation(ProportionalFairness, jobs, c, opts)
}

func solveAllocation(policy ClusterPolicy, jobs []cluster.Job, c cluster.Cluster, opts Options) (*cluster.Allocation, *Solution, error) {
	x, eff, sol, err := solveColumns(policy, jobs, c, opts)
	if err != nil {
		return nil, nil, err
	}
	r := c.NumTypes()
	a := &cluster.Allocation{X: make([][]float64, len(jobs)), EffThr: eff}
	for idx := range jobs {
		a.X[idx] = x[idx*r : (idx+1)*r : (idx+1)*r]
	}
	return a, sol, nil
}

// solveColumns solves policy's market over jobs and returns the n×r
// row-major time fractions, the effective throughputs and the solution.
func solveColumns(policy ClusterPolicy, jobs []cluster.Job, c cluster.Cluster, opts Options) (x, eff []float64, sol *Solution, err error) {
	var d *clusterDomain
	step := defaultStep
	if policy == ProportionalFairness {
		d = newPropFairDomain(jobs, c)
	} else {
		d, step = newMaxMinDomain(jobs, c, maxMinAlpha), maxMinStep
	}
	if sol, err = solve(d, opts, step); err != nil {
		return nil, nil, nil, err
	}
	x, eff = clusterColumns(jobs, c, sol)
	return x, eff, sol, nil
}

// clusterColumns converts averaged demands back to time fractions and
// projects onto the feasible polytope: rows are clamped to the unit time
// budget (best responses already respect it; averaging preserves it), then
// overdemanded capacity columns are scaled down, which only shrinks rows.
func clusterColumns(jobs []cluster.Job, c cluster.Cluster, sol *Solution) (x, eff []float64) {
	n, r := len(jobs), c.NumTypes()
	x = make([]float64, n*r)
	eff = make([]float64, n)
	used := make([]float64, r)
	for idx, j := range jobs {
		row := x[idx*r : (idx+1)*r]
		sum := 0.0
		if z := j.Scale; z > 0 {
			dem := sol.ClientDemand(idx)
			for i := 0; i < r; i++ {
				v := dem[i] / z
				if v < 0 {
					v = 0
				}
				row[i] = v
				sum += v
			}
		}
		if sum > 1 {
			for i := range row {
				row[i] /= sum
			}
		}
		for i := range row {
			used[i] += j.Scale * row[i]
		}
	}
	for i := 0; i < r; i++ {
		if used[i] > c.NumGPUs[i] && used[i] > 0 {
			f := c.NumGPUs[i] / used[i]
			for idx := range jobs {
				x[idx*r+i] *= f
			}
		}
	}
	for idx, j := range jobs {
		eff[idx] = cluster.EffectiveThroughput(j, x[idx*r:(idx+1)*r])
	}
	return x, eff
}

// MaxMinObjective evaluates the max-min policy objective — the minimum
// normalized throughput ratio over non-degenerate jobs — for comparing a
// price allocation against the LP optimum.
func MaxMinObjective(jobs []cluster.Job, c cluster.Cluster, a *cluster.Allocation) float64 {
	eq := cluster.EqualShare(jobs, c)
	min := math.Inf(1)
	for idx, j := range jobs {
		eqThr := cluster.EffectiveThroughput(j, eq[idx])
		if eqThr <= 0 {
			continue
		}
		if ratio := a.EffThr[idx] / (j.Weight * eqThr * j.Scale); ratio < min {
			min = ratio
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}
