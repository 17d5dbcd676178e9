package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"pop/internal/cluster"
	"pop/internal/tm"
	"pop/internal/topo"
)

// streamConfig sizes a client population and its per-round churn.
type streamConfig struct {
	Clients  int
	Churn    float64 // share of live clients replaced per round
	MultiGPU float64 // share of jobs that ask for 2 or 4 GPUs
}

// batch is one round's mutations: ids to DELETE, then jobs to POST.
type batch struct {
	Removes []int
	Adds    []cluster.Job
}

// stream generates a seeded job population and its churn, and keeps the
// benchmark's model of the live set: after Next returns, Live lists exactly
// the clients the next allocation must cover. The program under test only
// ever receives what the stream generates.
type stream struct {
	cfg     streamConfig
	rng     *rand.Rand
	initial []cluster.Job
	live    []int // live ids; removal swaps with the last element
	pos     map[int]int
	jobs    map[int]cluster.Job
	nextID  int
}

func newStream(cfg streamConfig, seed int64) *stream {
	s := &stream{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(seed)),
		pos:  make(map[int]int, cfg.Clients),
		jobs: make(map[int]cluster.Job, cfg.Clients),
	}
	for i := 0; i < cfg.Clients; i++ {
		s.initial = append(s.initial, s.add())
	}
	return s
}

// add generates a job with a fresh id and enters it into the live set.
// Throughputs follow cluster.GenerateJobs: a lognormal K80 base with
// distinct P100 and V100 speedups, so jobs prefer types by different ratios.
func (s *stream) add() cluster.Job {
	base := math.Exp(s.rng.NormFloat64() * 0.5)
	scale := 1.0
	if s.rng.Float64() < s.cfg.MultiGPU {
		scale = 2
		if s.rng.Float64() < 0.5 {
			scale = 4
		}
	}
	j := cluster.Job{
		ID:         s.nextID,
		Throughput: []float64{base, base * (1.6 + 1.4*s.rng.Float64()), base * (2.5 + 3.5*s.rng.Float64())},
		Weight:     1,
		Scale:      scale,
		NumSteps:   1,
		Priority:   1,
	}
	s.nextID++
	s.pos[j.ID] = len(s.live)
	s.live = append(s.live, j.ID)
	s.jobs[j.ID] = j
	return j
}

func (s *stream) remove(id int) {
	i := s.pos[id]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.pos[last] = i
	s.live = s.live[:len(s.live)-1]
	delete(s.pos, id)
	delete(s.jobs, id)
}

// Initial is the population loaded at set-up.
func (s *stream) Initial() []cluster.Job { return s.initial }

// Next draws one round of churn: Churn×Clients random live clients leave
// and as many new ones arrive. The model reflects the batch on return.
func (s *stream) Next() batch {
	n := int(math.Round(s.cfg.Churn * float64(s.cfg.Clients)))
	var b batch
	for i := 0; i < n; i++ {
		id := s.live[s.rng.Intn(len(s.live))]
		s.remove(id)
		b.Removes = append(b.Removes, id)
	}
	for i := 0; i < n; i++ {
		b.Adds = append(b.Adds, s.add())
	}
	return b
}

// Live returns the live jobs in a stable order.
func (s *stream) Live() []cluster.Job {
	out := make([]cluster.Job, len(s.live))
	for i, id := range s.live {
		out[i] = s.jobs[id]
	}
	return out
}

// Job looks up a live job by id.
func (s *stream) Job(id int) (cluster.Job, bool) {
	j, ok := s.jobs[id]
	return j, ok
}

// wireJob is popserver's job submission format.
type wireJob struct {
	ID         int       `json:"id"`
	Throughput []float64 `json:"throughput"`
	Weight     float64   `json:"weight"`
	Scale      float64   `json:"scale"`
	NumSteps   float64   `json:"num_steps"`
}

// encodeJobs renders jobs as one JSON-array POST /v1/jobs body.
func encodeJobs(jobs []cluster.Job) []byte {
	w := make([]wireJob, len(jobs))
	for i, j := range jobs {
		w[i] = wireJob{ID: j.ID, Throughput: j.Throughput, Weight: j.Weight, Scale: j.Scale, NumSteps: j.NumSteps}
	}
	out, err := json.Marshal(w)
	if err != nil {
		panic(err) // finite numbers and plain structs always marshal
	}
	return out
}

// teConfig describes the traffic-engineering trace.
type teConfig struct {
	Topology    string
	Commodities int
	Load        float64 // peak total demand as a share of total link capacity
	MatrixSeed  int64   // draws the commodity set and the gravity matrix
	Steps       int     // intervals generated; rounds cycle through them
	StepsPerDay int
}

// teTrace generates a diurnal trace over t: one gravity matrix, drawn from
// cfg.MatrixSeed, scaled per interval by tm.Diurnal's day-night level and
// by per-commodity jitter drawn from seed. The matrix is part of the
// workload's definition, because the share of demand a topology can carry
// depends on which pairs talk; the seed varies the traffic over time.
func teTrace(t *topo.Topology, cfg teConfig, seed int64) [][]tm.Demand {
	base := tm.Generate(tm.Config{
		Nodes:       t.G.N,
		Commodities: cfg.Commodities,
		Model:       tm.Gravity,
		TotalDemand: cfg.Load * t.TotalCapacity(),
		Seed:        cfg.MatrixSeed,
	})
	rng := rand.New(rand.NewSource(seed))
	out := make([][]tm.Demand, cfg.Steps)
	for step := range out {
		phase := 2 * math.Pi * float64(step%cfg.StepsPerDay) / float64(cfg.StepsPerDay)
		level := 0.75 + 0.25*math.Sin(phase)
		out[step] = make([]tm.Demand, len(base))
		for i, d := range base {
			jitter := max(0.1, 1+0.2*rng.NormFloat64())
			out[step][i] = tm.Demand{Src: d.Src, Dst: d.Dst, Amount: d.Amount * level * jitter}
		}
	}
	return out
}
