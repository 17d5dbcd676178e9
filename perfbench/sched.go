package main

import (
	"container/heap"
	"sort"
)

// minHeap is a min-heap of worker finish times.
type minHeap []float64

func (h minHeap) Len() int           { return len(h) }
func (h minHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *minHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// heapSched is the makespan of list scheduling on k workers: durations are
// taken in the given order, each by the worker that frees up first. It is
// POP's heapsched_rt runtime model.
func heapSched(durations []float64, k int) float64 {
	if k < 1 {
		k = 1
	}
	h := make(minHeap, 0, k)
	for i, d := range durations {
		if i < k {
			heap.Push(&h, d)
			continue
		}
		free := heap.Pop(&h).(float64)
		heap.Push(&h, free+d)
	}
	end := 0.0
	for _, t := range h {
		end = max(end, t)
	}
	return end
}

// schedPrediction is POP's parallelized_rt model of a round's sub-solves on
// k workers, with the two lower bounds any schedule obeys.
type schedPrediction struct {
	Sorted  float64 // longest-first list schedule (the 2-approximation)
	InOrder float64 // list schedule in the order the durations arrived
	CP      float64 // critical-path bound: the longest single duration
	Area    float64 // area bound: total work over k
}

func predictParallel(durations []float64, k int) schedPrediction {
	if len(durations) == 0 {
		return schedPrediction{}
	}
	if k < 1 {
		k = 1
	}
	p := schedPrediction{InOrder: heapSched(durations, k)}
	sum := 0.0
	for _, d := range durations {
		p.CP = max(p.CP, d)
		sum += d
	}
	p.Area = sum / float64(k)
	sorted := append([]float64(nil), durations...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	p.Sorted = heapSched(sorted, k)
	return p
}
