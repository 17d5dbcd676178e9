package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// served mirrors popserver's allocation reply, extra fields included.
type served struct {
	Round       int                `json:"round"`
	ComputedAt  time.Time          `json:"computed_at"`
	SolveTimeMs float64            `json:"solve_time_ms"`
	NumJobs     int                `json:"num_jobs"`
	StaleJobs   int                `json:"stale_jobs,omitempty"`
	Jobs        map[string]wireRow `json:"jobs"`
	Note        any                `json:"note,omitempty"`
}

func TestDecodeAllocMatchesEncodingJSON(t *testing.T) {
	s := served{
		Round: 7, ComputedAt: time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC), SolveTimeMs: 12.5,
		NumJobs: 3, StaleJobs: 1,
		Jobs: map[string]wireRow{
			"0":    {ID: 0, X: []float64{0.25, 1e-9, 0}, EffThr: 3.75},
			"12":   {ID: 12, X: []float64{}, EffThr: 0, Stale: true},
			"a\"b": {ID: 5, EffThr: -1.5e3},
		},
		Note: map[string]any{"nested": []any{1.0, "x\\y", true, nil, map[string]any{}}},
	}
	compact, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(s, " ", "\t")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{compact, indented} {
		var want wireAlloc
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		got, err := decodeAlloc(body)
		if err != nil {
			t.Fatalf("decodeAlloc: %v\n%s", err, body)
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("decodeAlloc = %+v, encoding/json = %+v", *got, want)
		}
	}
	for i := range compact {
		if _, err := decodeAlloc(compact[:i]); err == nil {
			t.Fatalf("truncated body of %d bytes decoded without error", i)
		}
	}
}
