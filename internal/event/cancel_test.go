package event

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// hardDNF builds a chained 3-DNF over n events: every clause shares
// events with its neighbors, so the whole formula is one connected
// component, and the literal signs vary so no clause absorbs another.
// For n around 64 the exact Shannon expansion does not finish in any
// reasonable time — which is the point: a cancelled evaluation is
// provably stopped mid-flight, not caught at the finish line.
func hardDNF(t testing.TB, n int) (*Table, DNF) {
	t.Helper()
	tab := NewTable()
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("w%02d", i))
		if err := tab.Set(ids[i], 0.3+0.05*float64(i%8)); err != nil {
			t.Fatal(err)
		}
	}
	lit := func(id ID, neg bool) Literal {
		if neg {
			return Neg(id)
		}
		return Pos(id)
	}
	var d DNF
	for i := 0; i < 2*n; i++ {
		d = d.Or(Cond(
			lit(ids[i%n], i%3 == 0),
			lit(ids[(i+7)%n], i%5 == 0),
			lit(ids[(i+13)%n], i%2 == 0),
		))
	}
	return tab, d
}

// cancelMidFlight runs eval in a goroutine, cancels it once it is
// demonstrably still running, and returns how long it took to stop
// after the cancel.
func cancelMidFlight(t *testing.T, eval func(ctx context.Context) error) time.Duration {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eval(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("evaluation finished before it could be cancelled (err=%v); make the input harder", err)
	case <-time.After(50 * time.Millisecond):
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled evaluation returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("evaluation did not return after cancel")
	}
	return time.Since(start)
}

// TestProbDNFCtxCancelsMidFlight: cancelling a pathological exact
// evaluation aborts the Shannon expansion within the ~100ms budget of
// ISSUE satellite (c) and bumps the engine cancellation counter.
func TestProbDNFCtxCancelsMidFlight(t *testing.T) {
	tab, d := hardDNF(t, 64)
	before := engineCancellations.Value()
	lag := cancelMidFlight(t, func(ctx context.Context) error {
		p, err := tab.ProbDNFCtx(ctx, d)
		if err != nil && !math.IsNaN(p) {
			t.Errorf("aborted evaluation returned p=%v, want NaN", p)
		}
		return err
	})
	if lag > 100*time.Millisecond {
		t.Errorf("exact evaluation took %v to stop after cancel, want <100ms", lag)
	}
	if got := engineCancellations.Value(); got <= before {
		t.Errorf("engine cancellations = %d, want > %d", got, before)
	}
}

// TestEstimateDNFCtxCancelsMidFlight: same contract for the
// Monte-Carlo sampler, which checks the context between sample
// batches.
func TestEstimateDNFCtxCancelsMidFlight(t *testing.T) {
	tab, d := hardDNF(t, 64)
	before := engineCancellations.Value()
	lag := cancelMidFlight(t, func(ctx context.Context) error {
		p, err := tab.EstimateDNFCtx(ctx, d, 500_000_000, rand.New(rand.NewSource(1)))
		if err != nil && !math.IsNaN(p) {
			t.Errorf("aborted estimation returned p=%v, want NaN", p)
		}
		return err
	})
	if lag > 100*time.Millisecond {
		t.Errorf("MC estimation took %v to stop after cancel, want <100ms", lag)
	}
	if got := engineCancellations.Value(); got <= before {
		t.Errorf("engine cancellations = %d, want > %d", got, before)
	}
}

// TestProbFormulaCtxCancelsMidFlight covers the general-formula
// entry point (used by views and keyword search) through the same
// panic/recover abort path.
func TestProbFormulaCtxCancelsMidFlight(t *testing.T) {
	tab, d := hardDNF(t, 64)
	f := FFalse
	for _, c := range d {
		clause := FTrue
		for _, l := range c {
			clause = FAnd(clause, FLit(l))
		}
		f = FOr(f, clause)
	}
	lag := cancelMidFlight(t, func(ctx context.Context) error {
		_, err := tab.ProbFormulaCtx(ctx, f)
		return err
	})
	// The formula engine memoizes on f.String(), so each of the 1024
	// steps between context polls is far costlier than a DNF expansion
	// node (more so under -race); allow a looser stop budget here.
	if lag > time.Second {
		t.Errorf("formula evaluation took %v to stop after cancel, want <1s", lag)
	}
}

// TestCtxPathsMatchPlainResults pins the fast path: a context that can
// never fire (Background) must take the check-free route and produce
// bit-identical results to the context-free API.
func TestCtxPathsMatchPlainResults(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 6; i++ {
		if err := tab.Set(ID(fmt.Sprintf("e%d", i)), 0.1*float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	d := DNF{
		Cond(Pos("e0"), Neg("e1")),
		Cond(Pos("e1"), Pos("e2"), Neg("e3")),
		Cond(Neg("e4"), Pos("e5")),
	}
	want, err := tab.ProbDNF(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.ProbDNFCtx(context.Background(), d)
	if err != nil || got != want {
		t.Errorf("ProbDNFCtx(Background) = %v, %v; want %v, nil", got, err, want)
	}
	wantMC, err := tab.EstimateDNF(d, 10_000, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	gotMC, err := tab.EstimateDNFCtx(context.Background(), d, 10_000, rand.New(rand.NewSource(7)))
	if err != nil || gotMC != wantMC {
		t.Errorf("EstimateDNFCtx(Background) = %v, %v; want %v, nil", gotMC, err, wantMC)
	}

	// An already-cancelled context aborts before any work.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tab.ProbDNFCtx(ctx, d); !errors.Is(err, context.Canceled) {
		t.Errorf("ProbDNFCtx(cancelled) = %v, want context.Canceled", err)
	}
	if _, err := tab.EstimateDNFCtx(ctx, d, 10_000, rand.New(rand.NewSource(7))); !errors.Is(err, context.Canceled) {
		t.Errorf("EstimateDNFCtx(cancelled) = %v, want context.Canceled", err)
	}
}
