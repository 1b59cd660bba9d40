// Package obs is the observability substrate of the repository: a
// process-wide metrics registry (lock-free atomic counters, gauges and
// fixed-bucket latency histograms), Prometheus text exposition, and
// request-scoped tracing (a lightweight span API carried via
// context.Context). Every layer — the HTTP server, the warehouse, the
// TPWJ/XPath engine, the probability engine, keyword search and view
// maintenance — records into it, and the server's /stats and /metrics
// routes render it (Snapshot and WriteText over one gather step), so
// there is one source of truth for counters.
//
// Design constraints, in order:
//
//  1. The recording hot path is mutex-free. Counter.Add, Gauge.Set and
//     Histogram.Observe are single atomic operations on handles the
//     caller obtained once at registration time; request recording
//     never takes a lock and never allocates.
//  2. A nil *Registry is the no-op registry: it hands out nil handles,
//     and every handle method is nil-safe. Instrumented code needs no
//     "is observability on?" branches, and TestObsOverhead in
//     internal/exp compares exactly this nil path against the live one.
//  3. No dependencies outside the standard library, so every internal
//     package may record into obs without import cycles.
//
// Registries are cheap; the process typically has several (the
// server's, the warehouse's, and the package-global Default() used by
// the event and keyword engines' process-wide counters), merged at
// exposition time by WriteText and Snapshot.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind int

// Metric family kinds, matching the Prometheus exposition TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name="value" pair attached to a metric.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing counter. The zero value is
// usable; a nil *Counter (from the nil no-op registry) discards
// increments.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (n must not be negative: counters are
// monotone by contract, and the exposition test enforces it).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metric is one labeled sample slot inside a family.
type metric struct {
	labels []Label
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
	hf     func() HistData
}

// family is all metrics sharing one name (and therefore help and kind).
type family struct {
	name    string
	help    string
	kind    Kind
	order   []string // label keys in registration order
	metrics map[string]*metric
}

// Registry holds metric families. The nil *Registry is the no-op
// registry: every lookup returns a nil handle whose methods do
// nothing. Lookups (Counter, Gauge, Histogram, GaugeFunc) take the
// registry mutex and are meant for registration time; the returned
// handles are the lock-free hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-global registry, home of package-global
// counters (the probability engine's, keyword search's). Per-instance
// state (a server's routes, a warehouse's journal) belongs in its own
// registry, merged with this one at exposition time.
func Default() *Registry { return defaultRegistry }

// labelKey serializes label values into a map key. Label names are
// fixed per family, so values alone disambiguate.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// slot returns (creating if needed) the metric slot for name+labels,
// enforcing one kind per family. The slot's handle (counter, gauge or
// histogram) is created here, under the registry mutex, so a slot is
// never observed half-initialized by a concurrent snapshot.
func (r *Registry) slot(name, help string, kind Kind, labels []Label) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, metrics: make(map[string]*metric)}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	key := labelKey(labels)
	m, ok := f.metrics[key]
	if !ok {
		m = &metric{labels: append([]Label(nil), labels...)}
		switch kind {
		case KindCounter:
			m.c = &Counter{}
		case KindGauge:
			m.g = &Gauge{}
		case KindHistogram:
			m.h = NewHistogram()
		}
		f.metrics[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter returns (creating on first use) the counter name{labels}.
// Repeated calls with the same name and labels return the same handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.slot(name, help, KindCounter, labels).c
}

// Gauge returns (creating on first use) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.slot(name, help, KindGauge, labels).g
}

// GaugeFunc registers a gauge whose value is computed by f at
// exposition time — for values that already live elsewhere (cache
// sizes, registered-view counts, uptime).
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	if r == nil {
		return
	}
	m := r.slot(name, help, KindGauge, labels)
	r.mu.Lock()
	m.gf = f
	r.mu.Unlock()
}

// Histogram returns (creating on first use) the latency histogram
// name{labels} with the default duration buckets.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.slot(name, help, KindHistogram, labels).h
}

// HistData is a histogram distribution in exposition form — what a
// Histogram reads into, and what a HistogramFunc computes outside obs:
// Bounds are the finite upper bounds, Cum the cumulative counts at
// those bounds (len(Cum) == len(Bounds)), Total the all-samples count
// (the +Inf bucket), Sum the (possibly approximated) sum of
// observations and Max the largest observation, all in seconds. Max is
// 0 when unknown; it only bounds quantile interpolation in the +Inf
// bucket and never reaches the text exposition.
type HistData struct {
	Bounds []float64
	Cum    []int64
	Sum    float64
	Total  int64
	Max    float64
}

// HistogramFunc registers a histogram whose distribution is computed by
// f at exposition time — for distributions maintained elsewhere, such
// as the runtime/metrics GC-pause and scheduler-latency histograms,
// whose bucket ladders the Go runtime owns.
func (r *Registry) HistogramFunc(name, help string, f func() HistData, labels ...Label) {
	if r == nil {
		return
	}
	m := r.slot(name, help, KindHistogram, labels)
	r.mu.Lock()
	m.hf = f
	r.mu.Unlock()
}

// snapshotFamilies returns a deep copy of the registry's families
// sorted by name, each with its metrics in registration order. The
// order slices, metric maps and metric structs are all copied under
// the registry mutex, because slot keeps mutating the originals as
// new series register lazily (per-stage histograms appear the first
// time a span finishes); only the handle pointers are shared, and
// those are read with atomics. Used by gather.
func (r *Registry) snapshotFamilies() []*family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		cp := &family{
			name:    f.name,
			help:    f.help,
			kind:    f.kind,
			order:   append([]string(nil), f.order...),
			metrics: make(map[string]*metric, len(f.metrics)),
		}
		for key, m := range f.metrics {
			mc := *m
			cp.metrics[key] = &mc
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
