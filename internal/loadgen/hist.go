package loadgen

import (
	"math"
	"sort"
	"sync"
)

// Client-side latency histogram: log-spaced buckets at 5% resolution
// from 1µs to 100s, so reported quantiles overestimate by at most one
// bucket (~5%) — plenty for p50/p95/p99 comparisons while keeping the
// per-endpoint state a few KB. A plain mutex per observation is fine at
// load-generator rates (thousands/s, not millions/s).

// histBoundsMs are the bucket upper bounds in milliseconds.
var histBoundsMs = func() []float64 {
	const growth = 1.05
	bounds := []float64{0.001}
	for bounds[len(bounds)-1] < 100_000 {
		bounds = append(bounds, bounds[len(bounds)-1]*growth)
	}
	return bounds
}()

type hist struct {
	mu     sync.Mutex
	counts []uint64 // len(histBoundsMs)+1, last is overflow
	total  uint64
	sumMs  float64
	maxMs  float64
}

func newHist() *hist {
	return &hist{counts: make([]uint64, len(histBoundsMs)+1)}
}

func (h *hist) observeMs(ms float64) {
	if ms < 0 || math.IsNaN(ms) {
		ms = 0
	}
	i := sort.SearchFloat64s(histBoundsMs, ms)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sumMs += ms
	if ms > h.maxMs {
		h.maxMs = ms
	}
	h.mu.Unlock()
}

// LatencyMs summarizes one histogram for the report.
type LatencyMs struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// snapshot reports quantiles as bucket upper bounds clamped to the
// observed max, like the server's histogram.
func (h *hist) snapshot() LatencyMs {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := LatencyMs{MaxMs: h.maxMs}
	if h.total == 0 {
		return s
	}
	s.MeanMs = h.sumMs / float64(h.total)
	quantile := func(q float64) float64 {
		rank := uint64(q * float64(h.total))
		if rank < 1 {
			rank = 1
		}
		var cum uint64
		for i, c := range h.counts {
			cum += c
			if cum >= rank {
				if i < len(histBoundsMs) {
					return min(histBoundsMs[i], h.maxMs)
				}
				return h.maxMs
			}
		}
		return h.maxMs
	}
	s.P50Ms = quantile(0.50)
	s.P95Ms = quantile(0.95)
	s.P99Ms = quantile(0.99)
	return s
}
