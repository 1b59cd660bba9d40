package obs

import (
	"context"
	"sync"
	"time"
)

// This file implements request-scoped tracing: a timed span tree
// carried via context.Context. The server's request middleware opens a
// Trace per request; instrumented stages (warehouse snapshot fetch,
// symbolic match, DNF compile, probability evaluation, keyword search,
// view maintenance, journal appends) call StartSpan/End around their
// work. On a context with no trace attached, StartSpan returns a nil
// span whose End is a no-op — one context lookup, no allocation — so
// instrumentation costs nothing off the request path (gated by
// TestObsOverhead in internal/exp).

// Trace is one request's span tree. All spans of a trace share its
// mutex; spans within a request are created and ended from the
// request's goroutine in the common case, but the lock keeps Snapshot
// (taken by /debug/traces scrapers) safe against in-flight recording.
type Trace struct {
	mu    sync.Mutex
	root  *Span
	start time.Time

	// onEnd, when set, receives every finished non-root span — the
	// hook the server uses to feed per-stage latency histograms.
	onEnd func(name string, d time.Duration)
}

// Span is one timed node of a trace.
type Span struct {
	t        *Trace
	parent   *Span
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	children []*Span
}

// NewTrace starts a trace whose root span has the given name
// (conventionally the route pattern). onEnd, if non-nil, is called
// once per finished non-root span with its name and duration — outside
// the trace lock, so it may touch registries freely.
func NewTrace(name string, onEnd func(name string, d time.Duration)) (*Trace, *Span) {
	t := &Trace{start: time.Now(), onEnd: onEnd}
	t.root = &Span{t: t, name: name, start: t.start}
	return t, t.root
}

type ctxKey struct{}

// ContextWithSpan returns a context carrying the span (and through it
// the trace), to be threaded through the layers below.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the current span, or nil when the context
// carries no trace.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child span under the context's current span and
// returns a context carrying it. When the context has no trace (a
// background call, a test, the uninstrumented benchmark side), it
// returns ctx unchanged and a nil span — End on a nil span is a no-op.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := &Span{t: parent.t, parent: parent, name: name, start: time.Now()}
	t := parent.t
	t.mu.Lock()
	parent.children = append(parent.children, child)
	t.mu.Unlock()
	return context.WithValue(ctx, ctxKey{}, child), child
}

// End finishes the span, recording its duration. Safe on a nil span
// and idempotent (the first End wins).
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	if s.ended {
		t.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = d
	onEnd := t.onEnd
	t.mu.Unlock()
	if onEnd != nil && s.parent != nil {
		onEnd(s.name, d)
	}
}

// TraceSnapshot returns the span tree of the whole trace this span
// belongs to, as of now (spans still running report their duration so
// far). Nil-safe — a span from an untraced context yields a zero
// snapshot. This is how the server's ?trace=1 echo reads the tree from
// inside a handler, before the root span ends.
func (s *Span) TraceSnapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.t.Snapshot()
}

// SpanSnapshot is the JSON form of one span: its name, start offset
// from the trace start and duration (both microseconds), and children.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	OffsetUS float64        `json:"offset_us"`
	DurUS    float64        `json:"dur_us"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot returns the trace's span tree as of now. Spans not yet
// ended report their duration so far.
func (t *Trace) Snapshot() SpanSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked(t.root)
}

func (t *Trace) snapshotLocked(s *Span) SpanSnapshot {
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	out := SpanSnapshot{
		Name:     s.name,
		OffsetUS: float64(s.start.Sub(t.start)) / 1e3,
		DurUS:    float64(dur) / 1e3,
	}
	for _, c := range s.children {
		out.Children = append(out.Children, t.snapshotLocked(c))
	}
	return out
}

// Find returns the first span snapshot with the given name in a
// pre-order walk, or nil. A test helper for pinning span presence.
func (s *SpanSnapshot) Find(name string) *SpanSnapshot {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if found := s.Children[i].Find(name); found != nil {
			return found
		}
	}
	return nil
}

// TraceRecord is one completed request in the trace ring buffer.
type TraceRecord struct {
	Time   time.Time    `json:"time"`
	Route  string       `json:"route"`
	Path   string       `json:"path"`
	Status int          `json:"status"`
	DurMS  float64      `json:"dur_ms"`
	Spans  SpanSnapshot `json:"spans"`
	// Cost is the request's cost-accounting profile (engine work,
	// matcher work, cache behavior — see CostSnapshot), when the server
	// attached one.
	Cost     *CostSnapshot `json:"cost,omitempty"`
	SlowOver bool          `json:"slow,omitempty"` // crossed the slow-query threshold
}

// TraceRing is a bounded ring buffer of recent request traces, read by
// GET /debug/traces. Adds are a short critical section per request
// (pointer bookkeeping only — the snapshot is taken by the caller).
type TraceRing struct {
	mu   sync.Mutex
	buf  []TraceRecord
	next int
	full bool
}

// NewTraceRing returns a ring keeping the last n traces (n forced to
// at least 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]TraceRecord, n)}
}

// Add records a completed request.
func (r *TraceRing) Add(rec TraceRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// List returns the retained traces, newest first.
func (r *TraceRing) List() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]TraceRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}
