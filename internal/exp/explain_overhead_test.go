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
// evaluating a query on a context carrying a per-request Cost
// accumulator must stay within 5% of the identical eval without one.
// The instrumented layers batch their charges (one deferred flush per
// evaluation, not one atomic per node), so the accumulator should be
// close to free. Methodology mirrors TestObsOverhead: back-to-back
// pairs so drift cancels, per-side medians so stalls drop out, retries
// because CI machines misbehave. Both sides use a cancellable context
// so the cancellation-polling cost is identical and only the cost
// accumulator differs.
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

	const pairs = 120
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}

	const limit = 0.05
	var overhead float64
	for attempt := 0; attempt < 3; attempt++ {
		offs := make([]time.Duration, pairs)
		ons := make([]time.Duration, pairs)
		for i := 0; i < pairs; i++ {
			s := time.Now()
			evalOff()
			m := time.Now()
			evalOn()
			offs[i] = m.Sub(s)
			ons[i] = time.Since(m)
		}
		medOff, medOn := median(offs), median(ons)
		overhead = float64(medOn-medOff) / float64(medOff)
		t.Logf("attempt %d: off=%v on=%v overhead=%.2f%%", attempt, medOff, medOn, overhead*100)
		if overhead < limit {
			return
		}
	}
	t.Fatalf("cost-accounting overhead %.2f%% exceeds %.0f%%", overhead*100, limit*100)
}
