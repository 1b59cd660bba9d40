package exp

import (
	"context"
	"sort"
	"testing"
	"time"
)

// TestFaultOverhead is the CI smoke for the cancellation cost contract:
// evaluating through the context-aware entry point with a live
// (cancellable, never-fired) context must stay within 3% of the
// context-free path, whose engine skips every check. Paired samples
// with per-side medians, like TestObsOverhead: each iteration times
// both sides back to back so machine drift cancels out, and a failing
// attempt is retried because CI machines misbehave — a real regression
// fails every attempt. The two sides differ by less than the machine's
// noise on a 10µs evaluation (single attempts read -5% to +5% on an
// idle box, up to +10% next to other test binaries), hence ten
// attempts of a few milliseconds each rather than three.
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

	const pairs = 120
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}

	const limit = 0.03
	var overhead float64
	for attempt := 0; attempt < 10; attempt++ {
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
	t.Fatalf("cancellation-check overhead %.2f%% exceeds %.0f%%", overhead*100, limit*100)
}

// TestFaultOverheadProbesExist pins the probe names the benchmark
// report tracks, so a rename in Probes() cannot silently drop the
// fault/overhead pair from BENCH_<date>.json.
func TestFaultOverheadProbesExist(t *testing.T) {
	want := map[string]bool{
		"fault/overhead/off/events=14": false,
		"fault/overhead/on/events=14":  false,
	}
	for _, p := range Probes() {
		if _, ok := want[p.Name]; ok {
			want[p.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("probe %q missing from Probes()", name)
		}
	}
}
