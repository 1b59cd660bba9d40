package exp

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

// errCounter counts the cancellation polls made on a context.
type errCounter struct {
	context.Context
	polls int
}

func (c *errCounter) Err() error {
	c.polls++
	return c.Context.Err()
}

// TestFaultOverhead is the CI smoke for the cancellation cost contract:
// what evaluating through the context-aware entry point with a live
// (cancellable, never-fired) context adds to the context-free path,
// whose engine skips every check, is fixed per evaluation and small.
//
// The cost is two lookups of the request's cost accumulator on the
// context, one poll of the context before the evaluation starts and one
// per 1024 expansion nodes (event's pollInterval), a pointer test
// per node, and no allocation. It is gated as what it is rather than as
// a share of one evaluation's wall time, which would grant a fixed cost
// a larger allowance whenever the evaluation next to it got slower and
// fail it whenever the evaluation got faster: the poll and allocation
// counts exactly, and the time as an absolute budget. 0.3 µs is 3% of
// what the 14-event evaluation below took when the contract was written
// as a ratio (10 µs; 3 µs since exact probability runs on masks).
//
// Each sample times one context-free and one context-aware evaluation
// back to back and the gate is the median of the per-pair differences,
// like TestObsOverhead. A failing attempt is retried because CI machines
// misbehave; a real regression fails every attempt.
func TestFaultOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing contract of production builds; CI runs it as its own gate without -race")
	}
	tab, d := AblationDNF(14)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	evalOff := func() {
		if _, err := tab.ProbDNF(d); err != nil {
			t.Fatal(err)
		}
	}
	evalOn := func() {
		if _, err := tab.ProbDNFCtx(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		evalOff()
		evalOn()
	}

	// Counts first: they do not depend on the machine.
	const pollEvery = 1024
	counted := &errCounter{Context: ctx}
	expansionNodes := obs.Default().Counter("px_engine_expansion_nodes_total", "").Value
	before := expansionNodes()
	if _, err := tab.ProbDNFCtx(counted, d); err != nil {
		t.Fatal(err)
	}
	nodes := expansionNodes() - before
	if want := 1 + int(nodes/pollEvery); counted.polls != want {
		t.Errorf("an evaluation of %d expansion nodes polled its context %d times, want %d", nodes, counted.polls, want)
	}
	if extra := testing.AllocsPerRun(100, evalOn) - testing.AllocsPerRun(100, evalOff); extra > 0 {
		t.Errorf("the context-aware path adds %.0f allocations per evaluation, want none", extra)
	}

	const pairs = 400
	const budget = 300 * time.Nanosecond
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
	t.Fatalf("cancellation checks add %v per evaluation, budget %v", overhead, budget)
}
