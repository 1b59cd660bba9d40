package obs

import (
	"math"
	rtm "runtime/metrics"
	"sync"
	"time"
)

// Runtime metric names read from runtime/metrics. Each is resolved
// against metrics.All() at construction, so a name the running
// toolchain does not export is simply skipped (its gauge reads 0 and
// its histogram stays empty) instead of panicking.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapBytes  = "/memory/classes/heap/objects:bytes"
	rmLiveBytes  = "/gc/heap/live:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/sched/pauses/total/gc:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// runtimeRefreshTTL bounds how often the collector re-reads
// runtime/metrics: one scrape evaluates several gauge and histogram
// funcs, and they should all see one coherent metrics.Read.
const runtimeRefreshTTL = 100 * time.Millisecond

// maxRuntimeBuckets caps the exposed bucket count of the runtime
// histograms. The Go runtime's ladders run to hundreds of buckets;
// adjacent buckets are merged down to this many so /metrics stays
// readable and cheap to scrape.
const maxRuntimeBuckets = 32

// RuntimeCollector samples the Go runtime via runtime/metrics and
// exposes the result as obs gauge/histogram families. All methods are
// safe for concurrent use; reads within runtimeRefreshTTL of each other
// share one metrics.Read.
type RuntimeCollector struct {
	mu      sync.Mutex
	samples []rtm.Sample
	index   map[string]int
	last    time.Time
}

// NewRuntimeCollector resolves the metric names supported by the
// running toolchain and returns a collector.
func NewRuntimeCollector() *RuntimeCollector {
	supported := make(map[string]bool)
	for _, d := range rtm.All() {
		supported[d.Name] = true
	}
	c := &RuntimeCollector{index: make(map[string]int)}
	for _, name := range []string{rmGoroutines, rmHeapBytes, rmLiveBytes, rmGCCycles, rmGCPauses, rmSchedLat} {
		if supported[name] {
			c.index[name] = len(c.samples)
			c.samples = append(c.samples, rtm.Sample{Name: name})
		}
	}
	return c
}

// refresh re-reads runtime/metrics when the cached samples are older
// than the TTL. Caller must hold c.mu.
func (c *RuntimeCollector) refresh() {
	if now := time.Now(); now.Sub(c.last) >= runtimeRefreshTTL {
		rtm.Read(c.samples)
		c.last = now
	}
}

// uint64Value returns the named sample as a float64 (0 when the name is
// unsupported or carries a non-scalar value).
func (c *RuntimeCollector) uint64Value(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[name]
	if !ok {
		return 0
	}
	c.refresh()
	if c.samples[i].Value.Kind() != rtm.KindUint64 {
		return 0
	}
	return float64(c.samples[i].Value.Uint64())
}

// histValue returns a copy of the named histogram, converted to the
// exposition form (nil when unsupported).
func (c *RuntimeCollector) histValue(name string) HistData {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[name]
	if !ok {
		return HistData{}
	}
	c.refresh()
	if c.samples[i].Value.Kind() != rtm.KindFloat64Histogram {
		return HistData{}
	}
	return convertHistogram(c.samples[i].Value.Float64Histogram())
}

// convertHistogram turns a runtime Float64Histogram (bucket i spans
// [Buckets[i], Buckets[i+1]), possibly with infinite edge boundaries)
// into cumulative exposition form, merging adjacent buckets down to
// maxRuntimeBuckets. The sum is approximated from bucket midpoints
// (infinite edges clamped to the adjacent finite bound) — runtime
// histograms carry no exact sum.
func convertHistogram(h *rtm.Float64Histogram) HistData {
	if h == nil || len(h.Counts) == 0 {
		return HistData{}
	}
	type bucket struct {
		upper float64 // upper bound; +Inf for the overflow bucket
		lower float64
		count uint64
	}
	buckets := make([]bucket, 0, len(h.Counts))
	for i, n := range h.Counts {
		buckets = append(buckets, bucket{lower: h.Buckets[i], upper: h.Buckets[i+1], count: n})
	}
	// Merge adjacent buckets until at most maxRuntimeBuckets remain.
	// Merging neighbors preserves cumulative correctness at the
	// boundaries that survive.
	for len(buckets) > maxRuntimeBuckets {
		merged := make([]bucket, 0, (len(buckets)+1)/2)
		for i := 0; i < len(buckets); i += 2 {
			if i+1 < len(buckets) {
				merged = append(merged, bucket{
					lower: buckets[i].lower,
					upper: buckets[i+1].upper,
					count: buckets[i].count + buckets[i+1].count,
				})
			} else {
				merged = append(merged, buckets[i])
			}
		}
		buckets = merged
	}
	var d HistData
	var cum int64
	for _, b := range buckets {
		cum += int64(b.count)
		if b.count > 0 {
			lo, hi := b.lower, b.upper
			if math.IsInf(lo, -1) {
				lo = min(hi, 0)
			}
			if math.IsInf(hi, 1) {
				hi = max(lo, 0)
			}
			d.Sum += (lo + hi) / 2 * float64(b.count)
		}
		if math.IsInf(b.upper, 1) {
			break // overflow bucket: folded into Total, no finite bound
		}
		d.Bounds = append(d.Bounds, b.upper)
		d.Cum = append(d.Cum, cum)
	}
	d.Total = cum
	return d
}

// Register exposes the collector on a registry: goroutine / heap /
// live-bytes / GC-cycle gauges, plus the GC-pause and scheduler-latency
// histograms on the runtime's (compacted) bucket ladders.
func (c *RuntimeCollector) Register(reg *Registry) {
	reg.GaugeFunc("px_runtime_goroutines", "live goroutines",
		func() float64 { return c.uint64Value(rmGoroutines) })
	reg.GaugeFunc("px_runtime_heap_bytes", "bytes of allocated heap objects",
		func() float64 { return c.uint64Value(rmHeapBytes) })
	reg.GaugeFunc("px_runtime_live_bytes", "heap bytes live after the last GC",
		func() float64 { return c.uint64Value(rmLiveBytes) })
	reg.GaugeFunc("px_runtime_gc_cycles", "completed GC cycles",
		func() float64 { return c.uint64Value(rmGCCycles) })
	reg.HistogramFunc("px_runtime_gc_pause_seconds", "stop-the-world GC pause latency",
		func() HistData { return c.histValue(rmGCPauses) })
	reg.HistogramFunc("px_runtime_sched_latency_seconds", "goroutine scheduling latency",
		func() HistData { return c.histValue(rmSchedLat) })
}
