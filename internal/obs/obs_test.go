package obs

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("px_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("px_test_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the same handle")
	}
	g := r.Gauge("px_test_gauge", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("px_x_total", "")
	g := r.Gauge("px_x", "")
	h := r.Histogram("px_x_seconds", "")
	r.GaugeFunc("px_x_f", "", func() float64 { return 1 })
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil handles recorded values")
	}
	if h.Snapshot().P50MS != 0 {
		t.Fatal("nil histogram quantile nonzero")
	}
	var b strings.Builder
	if err := WriteText(&b, r); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry exposed metrics: %q", b.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 100 observations at 2ms: every quantile lands in the (1ms, 2.5ms]
	// bucket, interpolated within it.
	for i := 0; i < 100; i++ {
		h.Observe(2 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.AvgMS-2.0) > 1e-9 {
		t.Fatalf("avg = %v ms, want 2", s.AvgMS)
	}
	for _, q := range []float64{s.P50MS, s.P95MS, s.P99MS} {
		if q <= 1.0 || q > 2.5 {
			t.Fatalf("quantile %v ms outside owning bucket (1, 2.5]", q)
		}
	}
	// A bimodal load: p50 in the low mode, p99 in the high one.
	h2 := NewHistogram()
	for i := 0; i < 98; i++ {
		h2.Observe(10 * time.Microsecond)
	}
	for i := 0; i < 2; i++ {
		h2.Observe(time.Second)
	}
	if p50 := h2.data().Quantile(0.50); p50 > 1e-3 {
		t.Fatalf("p50 = %v s, want microsecond-scale", p50)
	}
	if p99 := h2.data().Quantile(0.99); p99 < 0.5 {
		t.Fatalf("p99 = %v s, want second-scale", p99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Hour) // beyond the last bound
	d := h.data()
	if d.Total != 1 {
		t.Fatalf("total = %d", d.Total)
	}
	if d.Cum[len(d.Cum)-1] != 0 {
		t.Fatal("overflow observation counted in a finite bucket")
	}
	if d.Max != time.Hour.Seconds() {
		t.Fatalf("max = %vs, want 1h", d.Max)
	}
	// A rank in the +Inf bucket interpolates between the last finite
	// bound and the observed max — not clamped at the bound, so tails
	// beyond the ladder are visible in p99.
	last := DefaultBuckets[len(DefaultBuckets)-1]
	maxS := time.Hour.Seconds()
	if q := d.Quantile(0.99); q <= last || q > maxS {
		t.Fatalf("overflow quantile = %v, want in (%v, %v]", q, last, maxS)
	}
	if q := d.Quantile(1.0); q != maxS {
		t.Fatalf("q=1 in overflow bucket = %v, want the observed max %v", q, maxS)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("px_req_total", "requests", L("route", `GET /docs/{name}`)).Add(3)
	r.Counter("px_req_total", "requests", L("route", `quote " and \ back`)).Add(1)
	r.Gauge("px_entries", "entries").Set(4)
	r.GaugeFunc("px_uptime_seconds", "uptime", func() float64 { return 1.5 })
	r.Histogram("px_lat_seconds", "latency", L("route", "q")).Observe(3 * time.Millisecond)

	var b strings.Builder
	if err := WriteText(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP px_req_total requests\n# TYPE px_req_total counter\n",
		`px_req_total{route="GET /docs/{name}"} 3`,
		`px_req_total{route="quote \" and \\ back"} 1`,
		"# TYPE px_entries gauge",
		"px_entries 4",
		"px_uptime_seconds 1.5",
		"# TYPE px_lat_seconds histogram",
		`px_lat_seconds_bucket{route="q",le="0.005"} 1`,
		`px_lat_seconds_bucket{route="q",le="+Inf"} 1`,
		`px_lat_seconds_sum{route="q"} 0.003`,
		`px_lat_seconds_count{route="q"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Bucket counts must be cumulative (monotone in le).
	if !strings.Contains(out, `px_lat_seconds_bucket{route="q",le="0.01"} 1`) {
		t.Errorf("cumulative bucket after the owning one should still read 1\n%s", out)
	}
}

func TestWriteTextMergesRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("px_a_total", "ha").Add(1)
	b.Counter("px_b_total", "hb").Add(2)
	b.Counter("px_a_total", "ignored help", L("src", "b")).Add(3)
	var out strings.Builder
	if err := WriteText(&out, a, b); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Count(s, "# TYPE px_a_total counter") != 1 {
		t.Fatalf("family px_a_total not merged:\n%s", s)
	}
	for _, want := range []string{"px_a_total 1", `px_a_total{src="b"} 3`, "px_b_total 2"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in\n%s", want, s)
		}
	}
}

// TestWriteTextSumsCollidingSamples: the same family with an identical
// label set in two merged registries must sum, not silently drop the
// later registry's sample.
func TestWriteTextSumsCollidingSamples(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("px_dup_total", "h", L("src", "x")).Add(2)
	b.Counter("px_dup_total", "h", L("src", "x")).Add(5)
	a.Histogram("px_dup_seconds", "h").Observe(2 * time.Millisecond)
	b.Histogram("px_dup_seconds", "h").Observe(3 * time.Millisecond)
	var out strings.Builder
	if err := WriteText(&out, a, b); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, `px_dup_total{src="x"} 7`) {
		t.Errorf("colliding counter not summed:\n%s", s)
	}
	if strings.Count(s, `px_dup_total{src="x"}`) != 1 {
		t.Errorf("colliding counter emitted more than once:\n%s", s)
	}
	for _, want := range []string{
		"px_dup_seconds_count 2",
		"px_dup_seconds_sum 0.005",
		`px_dup_seconds_bucket{le="+Inf"} 2`,
		`px_dup_seconds_bucket{le="0.0025"} 1`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("colliding histogram not summed, missing %q:\n%s", want, s)
		}
	}
}

// TestConcurrentRegistration registers new series (the lazy per-stage
// pattern the server uses) while WriteText scrapes the registry —
// under -race this pins that snapshots deep-copy the family tables
// instead of aliasing maps and slices the registry keeps mutating, and
// that handles are initialized under the registry lock.
func TestConcurrentRegistration(t *testing.T) {
	var wg sync.WaitGroup
	r := NewRegistry()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				name := fmt.Sprintf("s%d_%d", g, i)
				r.Counter("px_lazy_total", "", L("stage", name)).Inc()
				if i%100 == 0 {
					r.Histogram("px_lazy_seconds", "", L("stage", name)).Observe(time.Microsecond)
					r.GaugeFunc("px_lazy_gauge", "", func() float64 { return 1 }, L("stage", name))
				}
			}
		}(g)
	}
	// Give the writers a head start so the registry holds enough
	// series that each exposition pass takes long enough for fresh
	// registrations to land mid-scrape.
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 20; i++ {
		var b strings.Builder
		if err := WriteText(&b, r); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func TestTraceSpans(t *testing.T) {
	var ended []string
	tr, root := NewTrace("GET /x", func(name string, d time.Duration) {
		ended = append(ended, name)
		if d < 0 {
			t.Errorf("span %s negative duration", name)
		}
	})
	ctx := ContextWithSpan(context.Background(), root)
	ctx2, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx2, "inner")
	inner.End()
	inner.End() // idempotent
	outer.End()
	root.End()

	snap := tr.Snapshot()
	if snap.Name != "GET /x" {
		t.Fatalf("root name %q", snap.Name)
	}
	o := snap.Find("outer")
	if o == nil {
		t.Fatal("outer span missing")
	}
	if o.Find("inner") == nil {
		t.Fatal("inner span not nested under outer")
	}
	if len(ended) != 2 || ended[0] != "inner" || ended[1] != "outer" {
		t.Fatalf("onEnd calls = %v, want [inner outer] (root excluded)", ended)
	}
}

func TestStartSpanWithoutTrace(t *testing.T) {
	ctx := context.Background()
	ctx2, s := StartSpan(ctx, "anything")
	if s != nil {
		t.Fatal("expected nil span on an untraced context")
	}
	if ctx2 != ctx {
		t.Fatal("untraced StartSpan should return the context unchanged")
	}
	s.End() // must not panic
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(TraceRecord{Status: i})
	}
	got := r.List()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i, want := range []int{5, 4, 3} {
		if got[i].Status != want {
			t.Fatalf("ring order %v, want newest-first [5 4 3]", got)
		}
	}
}

// TestConcurrentRecording hammers one counter, one histogram and one
// trace from many goroutines while snapshotting — the -race guarantee
// the request path relies on.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("px_c_total", "")
	h := r.Histogram("px_h_seconds", "")
	tr, root := NewTrace("root", func(string, time.Duration) {})
	ctx := ContextWithSpan(context.Background(), root)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				h.Observe(time.Microsecond)
				_, s := StartSpan(ctx, "work")
				s.End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = tr.Snapshot()
			var b strings.Builder
			_ = WriteText(&b, r)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != 8*500 {
		t.Fatalf("counter = %d, want %d", c.Value(), 8*500)
	}
	if got := h.Snapshot().Count; got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

// TestHistogramFuncMatchesHistogram feeds the same observations through
// an obs.Histogram and, bucketed by hand, through a HistogramFunc: both
// must report identical quantiles and identical exposition, because
// both read through the one HistData interpolation and writer.
func TestHistogramFuncMatchesHistogram(t *testing.T) {
	obsv := []time.Duration{
		3 * time.Microsecond, 40 * time.Microsecond, 40 * time.Microsecond,
		700 * time.Microsecond, 2 * time.Millisecond, 9 * time.Millisecond,
		120 * time.Millisecond, 3 * time.Second, 42 * time.Second, // beyond the ladder
	}
	h := NewRegistry()
	hist := h.Histogram("px_q_seconds", "quantile check")
	d := HistData{Bounds: DefaultBuckets, Cum: make([]int64, len(DefaultBuckets))}
	var sumNS, maxNS int64
	for _, o := range obsv {
		hist.Observe(o)
		for i, b := range DefaultBuckets {
			if o.Seconds() <= b {
				d.Cum[i]++
			}
		}
		d.Total++
		sumNS += int64(o)
		maxNS = max(maxNS, int64(o))
	}
	d.Sum, d.Max = float64(sumNS)/1e9, float64(maxNS)/1e9
	f := NewRegistry()
	f.HistogramFunc("px_q_seconds", "quantile check", func() HistData { return d })

	got, want := Snapshot(f).Histograms["px_q_seconds"], Snapshot(h).Histograms["px_q_seconds"]
	if got != want {
		t.Errorf("HistogramFunc snapshot %+v, Histogram snapshot %+v", got, want)
	}
	if want.Count != int64(len(obsv)) || want.P99MS <= DefaultBuckets[len(DefaultBuckets)-1]*1e3 {
		t.Errorf("snapshot %+v: want count %d and p99 past the last bound", want, len(obsv))
	}
	var ht, ft strings.Builder
	if err := WriteText(&ht, h); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&ft, f); err != nil {
		t.Fatal(err)
	}
	if ht.String() != ft.String() {
		t.Errorf("exposition differs:\nHistogram:\n%s\nHistogramFunc:\n%s", ht.String(), ft.String())
	}
}

// TestSnapshotKeys pins the JSON rendering's keys to the exposition's
// series identity, and its merge to the exposition's summing rule.
func TestSnapshotKeys(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("px_req_total", "requests", L("route", "GET /docs/{name}")).Add(2)
	b.Counter("px_req_total", "requests", L("route", "GET /docs/{name}")).Add(3)
	a.GaugeFunc("px_up", "up", func() float64 { return 1.5 })
	b.Histogram("px_lat_seconds", "latency", L("stage", "s")).Observe(time.Millisecond)
	v := Snapshot(a, b)
	if got := v.Metrics[`px_req_total{route="GET /docs/{name}"}`]; got != 5 {
		t.Errorf("merged counter = %v, want 5 (metrics %v)", got, v.Metrics)
	}
	if v.Metrics["px_up"] != 1.5 || len(v.Metrics) != 2 {
		t.Errorf("metrics = %v", v.Metrics)
	}
	if hs := v.Histograms[`px_lat_seconds{stage="s"}`]; hs.Count != 1 || len(v.Histograms) != 1 {
		t.Errorf("histograms = %v", v.Histograms)
	}
	if p := v.WithPrefix("px_req"); len(p) != 1 {
		t.Errorf("WithPrefix(px_req) = %v", p)
	}
}
