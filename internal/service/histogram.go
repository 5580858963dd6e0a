package service

import (
	"sync/atomic"
	"time"
)

// durationBounds are the upper bucket bounds (seconds) of every
// latency Histogram: the service's per-tier job latencies and the
// gateway's per-replica upstream latencies. They span sub-millisecond
// cache hits and local round-trips to the 60-second neighborhood of the
// deadline ceilings and attempt timeouts; +Inf is implicit.
var durationBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bound latency histogram with lock-free Observe:
// one atomic bucket increment plus two atomic adds per observation, so
// neither the job-finalization path nor the gateway's proxy path ever
// contends on metrics.
type Histogram struct {
	counts []atomic.Int64 // len(durationBounds)+1; last is +Inf
	sumNs  atomic.Int64
	count  atomic.Int64
}

// NewHistogram returns an empty Histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Int64, len(durationBounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	i := 0
	for i < len(durationBounds) && sec > durationBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(d.Nanoseconds())
	h.count.Add(1)
}

// HistogramSnapshot is a point-in-time copy of one latency histogram,
// as served in the JSON metrics snapshot. Counts are per-bucket (not
// cumulative) and parallel to Bounds, with one extra final element for
// the +Inf bucket; the Prometheus exposition renders the conventional
// cumulative le-labeled form of the same data.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds.
	Bounds []float64 `json:"bounds"`
	// Counts holds len(Bounds)+1 per-bucket observation counts; the
	// last is the +Inf overflow bucket.
	Counts []int64 `json:"counts"`
	// SumSeconds is the sum of all observed durations in seconds.
	SumSeconds float64 `json:"sum_seconds"`
	// Count is the total number of observations.
	Count int64 `json:"count"`
}

// Snapshot returns a point-in-time copy of the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds:     durationBounds,
		Counts:     make([]int64, len(h.counts)),
		SumSeconds: float64(h.sumNs.Load()) / 1e9,
		Count:      h.count.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
