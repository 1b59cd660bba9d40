package obs

import (
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram over DefaultBuckets
// (see buckets.go for why the ladder is shared and pinned). Observe is lock-free:
// one atomic add into the bucket, one into the sum, and a max that
// rarely needs a write. Quantiles (p50/p95/p99) are derived at snapshot
// time by HistData.Quantile.
//
// A nil *Histogram discards observations.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending
	counts []atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds, largest single observation
}

// NewHistogram returns a histogram over DefaultBuckets.
func NewHistogram() *Histogram {
	return &Histogram{
		bounds: DefaultBuckets,
		counts: make([]atomic.Int64, len(DefaultBuckets)+1),
	}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	s := d.Seconds()
	// Linear scan: the ladder is short and the common case (µs–ms)
	// exits within the first dozen compares; a branch-predicted scan
	// beats binary search at this size.
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	// Raise the observed max (CAS loop; in the common case one load
	// shows the current max is already larger and no write happens).
	// The max bounds quantile interpolation in the +Inf bucket and
	// feeds the max_ms /stats reports.
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time view of a histogram, with
// derived quantiles in milliseconds (the unit /stats reports latencies
// in).
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	AvgMS float64 `json:"avg_ms"`
	MaxMS float64 `json:"max_ms"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// Snapshot returns the current counts and derived quantiles. Counts
// are read without a lock, so a snapshot concurrent with observations
// may be off by in-flight increments — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.data().Snapshot()
}

// data reads the histogram into exposition form: cumulative counts at
// the finite bounds (Prometheus `le` semantics), the total, the sum and
// the observed maximum in seconds.
func (h *Histogram) data() HistData {
	d := HistData{Bounds: h.bounds, Cum: make([]int64, len(h.bounds))}
	for i := range h.counts {
		d.Total += h.counts[i].Load()
		if i < len(h.bounds) {
			d.Cum[i] = d.Total
		}
	}
	d.Sum = float64(h.sum.Load()) / 1e9
	d.Max = float64(h.max.Load()) / 1e9
	return d
}

// Snapshot summarizes the distribution: count, mean, max and the
// p50/p95/p99 quantiles, in milliseconds.
func (d HistData) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: d.Total}
	if d.Total == 0 {
		return s
	}
	s.AvgMS = d.Sum / float64(d.Total) * 1e3
	s.MaxMS = d.Max * 1e3
	s.P50MS = d.Quantile(0.50) * 1e3
	s.P95MS = d.Quantile(0.95) * 1e3
	s.P99MS = d.Quantile(0.99) * 1e3
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in seconds by linear
// interpolation within the bucket holding the target rank — the usual
// Prometheus histogram_quantile estimate. A rank landing in the +Inf
// bucket interpolates between the largest finite bound and Max, so tail
// latencies beyond the ladder still move p99 instead of being silently
// clamped at the last bound; without a known Max (or with a racy read
// that has not published it yet) it clamps. A known Max also caps the
// estimate inside a finite bucket, so no quantile exceeds max_ms.
func (d HistData) Quantile(q float64) float64 {
	if d.Total == 0 {
		return 0
	}
	rank := q * float64(d.Total)
	var prev int64
	lo := 0.0
	for i, hi := range d.Bounds {
		if n := d.Cum[i] - prev; n > 0 && float64(d.Cum[i]) >= rank {
			v := lo + (hi-lo)*(rank-float64(prev))/float64(n)
			if d.Max > lo {
				v = min(v, d.Max)
			}
			return v
		}
		prev, lo = d.Cum[i], hi
	}
	if n := d.Total - prev; n > 0 && d.Max > lo {
		return lo + (d.Max-lo)*(rank-float64(prev))/float64(n)
	}
	return lo
}
