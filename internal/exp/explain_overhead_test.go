package exp

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tpwj"
)

// TestExplainOverhead is the CI smoke for the cost-accounting contract:
// what evaluating a query on a context carrying a per-request Cost
// accumulator adds to the identical eval without one is fixed per
// request and small. The instrumented layers batch their charges (one
// flush per evaluation, not one atomic per node), so the accumulator
// costs its own allocation, the context that carries it, and a handful
// of atomic adds.
//
// Like TestObsOverhead it gates a fixed cost as what it is, not as a
// share of one evaluation's wall time: the allocation count exactly
// (the Cost and its context), and the time as an absolute budget of
// 1 µs on the paired on−off differences, whose median was well under
// half of that on a ≈ 50 µs eval when the gate was written. Both sides
// use a cancellable context so the cancellation-polling cost is
// identical and only the cost accumulator differs. Pairs cancel drift,
// the median drops stalls, and retries absorb misbehaving CI machines.
func TestExplainOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing contract of production builds; CI runs it as its own gate without -race")
	}
	ft := SectionDoc(12)
	q := tpwj.MustParseQuery("A(//L $x)")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	evalOff := func() {
		if _, err := tpwj.EvalFuzzyContext(ctx, q, ft); err != nil {
			t.Fatal(err)
		}
	}
	evalOn := func() {
		if _, err := tpwj.EvalFuzzyContext(obs.ContextWithCost(ctx, obs.NewCost()), q, ft); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		evalOff()
		evalOn()
	}

	const maxAllocs = 2
	if extra := testing.AllocsPerRun(100, evalOn) - testing.AllocsPerRun(100, evalOff); extra > maxAllocs {
		t.Errorf("cost accounting adds %.0f allocations per eval, want at most %d", extra, maxAllocs)
	}

	const pairs = 400
	const budget = time.Microsecond
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
	t.Fatalf("cost accounting adds %v per eval, budget %v", overhead, budget)
}
