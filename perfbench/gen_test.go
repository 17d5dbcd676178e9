package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"pop/internal/topo"
)

// batches renders a stream's initial load and n rounds of churn exactly as
// they go on the wire.
func batches(cfg streamConfig, seed int64, n int) [][]byte {
	s := newStream(cfg, seed)
	out := [][]byte{encodeJobs(s.Initial())}
	for i := 0; i < n; i++ {
		b := s.Next()
		removes, err := json.Marshal(b.Removes)
		if err != nil {
			panic(err)
		}
		out = append(out, removes, encodeJobs(b.Adds))
	}
	return out
}

func TestStreamSameSeedSameBytes(t *testing.T) {
	cfg := streamConfig{Clients: 500, Churn: 0.05, MultiGPU: 0.2}
	a, b := batches(cfg, 42, 5), batches(cfg, 42, 5)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("batch %d differs between two runs of seed 42", i)
		}
	}
	c := batches(cfg, 43, 5)
	if bytes.Equal(a[0], c[0]) || bytes.Equal(a[1], c[1]) {
		t.Fatal("seeds 42 and 43 produced the same inputs")
	}
}

func TestStreamModelTracksBatches(t *testing.T) {
	s := newStream(streamConfig{Clients: 300, Churn: 0.1}, 1)
	live := map[int]bool{}
	for _, j := range s.Initial() {
		live[j.ID] = true
	}
	for r := 0; r < 20; r++ {
		b := s.Next()
		if len(b.Removes) != 30 || len(b.Adds) != 30 {
			t.Fatalf("round %d: %d removes, %d adds, want 30 each", r, len(b.Removes), len(b.Adds))
		}
		for _, id := range b.Removes {
			if !live[id] {
				t.Fatalf("round %d removes %d, which is not live", r, id)
			}
			delete(live, id)
		}
		for _, j := range b.Adds {
			if live[j.ID] {
				t.Fatalf("round %d re-adds live id %d", r, j.ID)
			}
			live[j.ID] = true
		}
		got := s.Live()
		if len(got) != len(live) {
			t.Fatalf("round %d: model has %d jobs, want %d", r, len(got), len(live))
		}
		for _, j := range got {
			if !live[j.ID] {
				t.Fatalf("round %d: model holds removed id %d", r, j.ID)
			}
		}
	}
}

func TestTETraceSameSeedSameBytes(t *testing.T) {
	tp := topo.Generate("Deltacom")
	cfg := teConfig{Commodities: 200, Load: 0.3, MatrixSeed: 5, Steps: 6, StepsPerDay: 3}
	encode := func(seed int64) []byte {
		out, err := json.Marshal(teTrace(tp, cfg, seed))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if !bytes.Equal(encode(9), encode(9)) {
		t.Fatal("seed 9 produced two different traces")
	}
	if bytes.Equal(encode(9), encode(10)) {
		t.Fatal("seeds 9 and 10 produced the same trace")
	}
}
