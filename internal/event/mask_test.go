package event

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestEngineWidthBoundary: a DNF over exactly 64 events is evaluated on
// masks, one over 65 on literal lists, and both equal the closed form
// of independent clauses aᵢ ∧ ¬bᵢ (TestProbDNFLargeUniverse's shape).
func TestEngineWidthBoundary(t *testing.T) {
	for _, events := range []int{64, 65} {
		r := rand.New(rand.NewSource(7))
		tab := NewTable()
		var d DNF
		miss := 1.0
		for i := 0; i < 32; i++ {
			a, b := ID(fmt.Sprintf("a%d", i)), ID(fmt.Sprintf("b%d", i))
			pa, pb := r.Float64(), r.Float64()
			tab.MustSet(a, pa).MustSet(b, pb)
			d = append(d, Cond(Pos(a), Neg(b)))
			miss *= 1 - pa*(1-pb)
		}
		if events == 65 {
			pc := r.Float64()
			tab.MustSet("c", pc)
			d = append(d, Cond(Pos("c")))
			miss *= 1 - pc
		}
		c, err := tab.CompileDNF(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.probs) != events {
			t.Fatalf("compiled over %d events, want %d", len(c.probs), events)
		}
		if small := events <= 64; c.Small() != small || (c.masks != nil) != small {
			t.Errorf("%d events: Small() = %v, masks built = %v, want both %v", events, c.Small(), c.masks != nil, small)
		}
		if got := c.Prob(); math.Abs(got-(1-miss)) > 1e-12 {
			t.Errorf("%d events: Prob = %.17g, want %.17g", events, got, 1-miss)
		}
		if est := c.Estimate(20000, rand.New(rand.NewSource(1))); math.Abs(est-(1-miss)) > 0.02 {
			t.Errorf("%d events: Estimate = %v, want ≈ %v", events, est, 1-miss)
		}
	}
}

// TestMaskEngineCancelsAtThePoll: the pathological DNF of cancel_test.go
// runs on masks; a context that fires at the third poll stops it at
// exactly 3·pollInterval expansion nodes, and the aborted
// evaluation still flushes what it did to the global counters and to
// the request's cost.
func TestMaskEngineCancelsAtThePoll(t *testing.T) {
	tab, d := hardDNF(t, 64)
	c, err := tab.CompileDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Small() {
		t.Fatal("64-event DNF must run on masks")
	}
	// One poll before the evaluation starts, two that pass, one that fires.
	cost := obs.NewCost()
	ctx := obs.ContextWithCost(newPollBudget(t, 3), cost)
	nodes0, cancels0, misses0 := engineExpansionNodes.Value(), engineCancellations.Value(), engineMemoMisses.Value()
	p, err := c.ProbCtx(ctx)
	if !errors.Is(err, context.Canceled) || !math.IsNaN(p) {
		t.Fatalf("ProbCtx = %v, %v; want NaN, context.Canceled", p, err)
	}
	if got := engineExpansionNodes.Value() - nodes0; got != 3*pollInterval {
		t.Errorf("aborted after %d expansion nodes, want %d", got, 3*pollInterval)
	}
	if got := cost.Value(obs.CostEngineExpansionNodes); got != 3*pollInterval {
		t.Errorf("request charged %d expansion nodes, want %d", got, 3*pollInterval)
	}
	if cancels := engineCancellations.Value(); cancels != cancels0+1 {
		t.Errorf("cancellations %d → %d, want one more", cancels0, cancels)
	}
	if misses := engineMemoMisses.Value(); misses == misses0 || cost.Value(obs.CostEngineMemoMisses) != misses-misses0 {
		t.Errorf("memo misses not flushed: global %d → %d, request %d",
			misses0, misses, cost.Value(obs.CostEngineMemoMisses))
	}
}

// TestProbDeterministicAcrossGoroutines: a Compiled is immutable and
// every evaluation brings its own scratch, so eight goroutines sharing
// one get one bit pattern (run under -race).
func TestProbDeterministicAcrossGoroutines(t *testing.T) {
	for _, sh := range probShapes {
		tab, d := sh.build()
		c, err := tab.CompileDNF(d)
		if err != nil {
			t.Fatal(err)
		}
		var got [8]uint64
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = math.Float64bits(c.Prob())
			}()
		}
		wg.Wait()
		for g, bits := range got {
			if bits != got[0] {
				t.Errorf("%s: goroutine %d got %016x, goroutine 0 %016x", sh.name, g, bits, got[0])
			}
		}
	}
}

// TestProbSmallAllocatesNothing: one- and two-clause DNFs — what the
// point queries, updates and view reads of the serving workloads
// evaluate — are closed forms that need no scratch at all.
func TestProbSmallAllocatesNothing(t *testing.T) {
	tab := NewTable()
	tab.MustSet("w1", 0.8).MustSet("w2", 0.7).MustSet("w3", 0.4)
	for _, tc := range []struct {
		d    DNF
		want float64
	}{
		{DNF{MustParseCondition("w1 !w2")}, 0.8 * 0.3},
		{DNF{MustParseCondition("w1 w2"), MustParseCondition("!w1 w3")}, 0.8*0.7 + 0.2*0.4},
		{DNF{MustParseCondition("w1 w2"), MustParseCondition("w2 w3")}, 0.7 * (0.8 + 0.4 - 0.8*0.4)},
	} {
		c, err := tab.CompileDNF(tc.d)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Prob(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Prob(%v) = %v, want %v", tc.d, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { probSink = c.Prob() }); n != 0 {
			t.Errorf("Prob(%v) allocates %v times, want 0", tc.d, n)
		}
	}
}

// TestChainMemoIsLoadBearing: the 60-event chain meets the same
// suffixes again and again; with the memo it takes 467 expansion nodes,
// without it 912 058.
func TestChainMemoIsLoadBearing(t *testing.T) {
	i := slices.IndexFunc(probShapes, func(sh probShape) bool { return sh.name == "chain60" })
	tab, d := probShapes[i].build()
	nodes0, hits0 := engineExpansionNodes.Value(), engineMemoHits.Value()
	if _, err := tab.ProbDNF(d); err != nil {
		t.Fatal(err)
	}
	if nodes := engineExpansionNodes.Value() - nodes0; nodes > 1000 {
		t.Errorf("chain60 took %d expansion nodes, want at most 1000", nodes)
	}
	if engineMemoHits.Value() == hits0 {
		t.Error("chain60 never hit the memo")
	}
}
