package exp

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/fuzzy"
	"repro/internal/obs"
	"repro/internal/tpwj"
)

// TestObsOverhead is the CI smoke for the observability cost contract:
// what the fully instrumented query path (trace + spans + stage
// histograms) adds to the identical eval on an untraced context — the
// no-op instrumentation path — is fixed per request and small.
//
// The cost is a trace, three spans, eight clock reads and twelve
// allocations, so it is gated as what it is rather than as a share of
// one evaluation's wall time, which would grant a fixed cost a larger
// allowance whenever the work next to it got slower or the input
// larger: the span and allocation counts exactly, and the time as an
// absolute budget. 3 µs is 5% of what the 12-section evaluation below
// took when the contract was written as a ratio (65 µs; 20 µs now).
//
// Each sample times one uninstrumented and one instrumented eval back
// to back and the gate is the median of the per-pair differences, so
// slow drift (thermal, noisy neighbors) hits both sides of a pair
// equally and one-off stalls (GC, scheduler) drop out. A failing
// attempt is retried because CI machines misbehave; a real regression
// fails every attempt.
func TestObsOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing contract of production builds; CI runs it as its own gate without -race")
	}
	ft := SectionDoc(12)
	q := tpwj.MustParseQuery("A(//L $x)")
	stages := obsStageRecorder()
	spans := 0
	record := func(name string, d time.Duration) {
		spans++
		stages(name, d)
	}

	evalOff := func() {
		if _, err := tpwj.EvalFuzzyContext(context.Background(), q, ft); err != nil {
			t.Fatal(err)
		}
	}
	evalOn := func() {
		if err := obsTracedEval(q, ft, record); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both paths: the first evaluations pay allocator and memo
	// warmup that has nothing to do with instrumentation.
	for i := 0; i < 5; i++ {
		evalOff()
		evalOn()
	}

	// Counts first: they do not depend on the machine. Each span is two
	// clock reads and the root two more.
	const maxSpans, maxAllocs = 3, 12
	spans = 0
	evalOn()
	if spans > maxSpans {
		t.Errorf("one traced eval finished %d spans, want at most %d", spans, maxSpans)
	}
	if extra := testing.AllocsPerRun(100, evalOn) - testing.AllocsPerRun(100, evalOff); extra > maxAllocs {
		t.Errorf("tracing adds %.0f allocations per eval, want at most %d", extra, maxAllocs)
	}

	const pairs = 400
	const budget = 3 * time.Microsecond
	var overhead time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		diffs := make([]time.Duration, pairs)
		for i := range diffs {
			s := time.Now()
			evalOff()
			m := time.Now()
			evalOn()
			diffs[i] = time.Since(m) - m.Sub(s)
		}
		sort.Slice(diffs, func(i, j int) bool { return diffs[i] < diffs[j] })
		overhead = diffs[pairs/2]
		t.Logf("attempt %d: median(on-off)=%v", attempt, overhead)
		if overhead <= budget {
			return
		}
	}
	t.Fatalf("instrumentation adds %v per eval, budget %v", overhead, budget)
}

// obsStageRecorder models the server's trace onEnd hook: finished
// spans feed per-stage histograms on a live registry, with the handle
// cached after the first lookup (the test is single-goroutine, so a
// plain map stands in for the server's sync.Map).
func obsStageRecorder() func(name string, d time.Duration) {
	reg := obs.NewRegistry()
	hists := make(map[string]*obs.Histogram)
	return func(name string, d time.Duration) {
		h, ok := hists[name]
		if !ok {
			h = reg.Histogram("px_stage_seconds", "pipeline stage latency", obs.L("stage", name))
			hists[name] = h
		}
		h.Observe(d)
	}
}

// obsTracedEval runs one fully instrumented query evaluation: a fresh
// trace per call (as the server's middleware does per request), the
// eval recording its pipeline spans into it, each finished span
// feeding a histogram. TestObsOverhead compares this against the
// identical eval on a context without a trace — the no-op
// instrumentation path.
func obsTracedEval(q *tpwj.Query, ft *fuzzy.Tree, record func(string, time.Duration)) error {
	_, root := obs.NewTrace("bench", record)
	ctx := obs.ContextWithSpan(context.Background(), root)
	_, err := tpwj.EvalFuzzyContext(ctx, q, ft)
	root.End()
	return err
}
