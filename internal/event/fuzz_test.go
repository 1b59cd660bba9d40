package event

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fuzzDNFShape bounds what decodeFuzzDNF produces.
type fuzzDNFShape struct {
	minEvents, maxEvents int
	maxClauses           int
	minLits, maxLits     int // per clause; 0 literals is the always-true clause
}

// decodeFuzzDNF deterministically decodes a byte stream into an event
// table (probabilities from the stream, including the 0 and 1 edge
// cases) and a DNF over those events; repeated and contradictory
// literals and absorbable clauses come as the bytes fall. Bytes past the
// end of the stream read as zero, so every input decodes.
func decodeFuzzDNF(data []byte, sh fuzzDNFShape) (*Table, DNF) {
	cur := 0
	next := func() byte {
		if cur < len(data) {
			b := data[cur]
			cur++
			return b
		}
		cur++
		return 0
	}
	n := sh.minEvents + int(next())%(sh.maxEvents-sh.minEvents+1)
	tab := NewTable()
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(fmt.Sprintf("e%d", i))
		tab.MustSet(ids[i], float64(next())/255)
	}
	k := 1 + int(next())%sh.maxClauses
	var d DNF
	for i := 0; i < k; i++ {
		m := sh.minLits + int(next())%(sh.maxLits-sh.minLits+1)
		var c Condition
		for j := 0; j < m; j++ {
			b := next()
			c = append(c, Literal{Event: ids[int(b&0x7f)%n], Neg: b&0x80 != 0})
		}
		d = append(d, c)
	}
	return tab, d
}

// FuzzProbDNFDifferential checks the compiled exact engine against the
// brute-force world-enumeration oracle on random tables and DNFs of up
// to 12 events, and checks normalization invariance of the result. In
// normal `go test` runs (and CI) the checked-in seed corpus under
// testdata/fuzz plus the f.Add seeds below execute as regular test
// cases; `go test -fuzz=FuzzProbDNFDifferential` explores further.
func FuzzProbDNFDifferential(f *testing.F) {
	// Adversarial shapes mirroring dnf_test.go: contradictions,
	// absorption pairs, an always-true clause, repeated literals, dense
	// overlap, and degenerate probabilities 0 and 1.
	f.Add([]byte{})                                          // minimal: all-zero stream
	f.Add([]byte{0, 255, 0, 1, 2, 0x02, 0x82})               // w and !w in one clause (contradiction)
	f.Add([]byte{0, 128, 128, 2, 1, 0x00, 2, 0x00, 0x01})    // "e0" absorbs "e0 e1"
	f.Add([]byte{1, 10, 200, 30, 2, 0, 3, 0x01, 0x81, 0x02}) // true clause disables event checks
	f.Add([]byte{3, 0, 255, 64, 192, 4, 3, 1, 1, 1, 2, 0x83, 0x04, 1, 0x82})
	f.Add([]byte{10, 9, 18, 27, 36, 45, 54, 63, 72, 81, 90, 99, 108, 7,
		2, 0x01, 0x82, 2, 0x03, 0x84, 2, 0x05, 0x86, 2, 0x07, 0x88,
		2, 0x09, 0x8a, 3, 0x01, 0x03, 0x05, 3, 0x02, 0x04, 0x06}) // disjoint pairs: component decomposition
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, d := decodeFuzzDNF(data, fuzzDNFShape{minEvents: 2, maxEvents: 12, maxClauses: 8, maxLits: 5})
		exact, err := tab.ProbDNF(d)
		if err != nil {
			t.Fatalf("ProbDNF(%v) over %v: %v", d, tab, err)
		}
		brute, err := tab.ProbDNFBrute(d)
		if err != nil {
			t.Fatalf("ProbDNFBrute(%v): %v", d, err)
		}
		if math.Abs(exact-brute) > 1e-12 {
			t.Errorf("ProbDNF = %.17g, brute = %.17g (diff %g)\n dnf: %v\n table: %v",
				exact, brute, exact-brute, d, tab)
		}
		norm, err := tab.ProbDNF(d.Normalize())
		if err != nil {
			t.Fatalf("ProbDNF(normalized %v): %v", d.Normalize(), err)
		}
		if math.Abs(exact-norm) > 1e-12 {
			t.Errorf("normalization changed the probability: %.17g vs %.17g\n dnf: %v",
				exact, norm, d)
		}
	})
}

// pollBudget is a cancellable context whose Err reports
// context.Canceled once it has been called polls times. The engines
// poll once before they start and then every pollInterval
// expansion nodes, so it stops an evaluation at an exact node count.
type pollBudget struct {
	context.Context
	polls int
}

func newPollBudget(t testing.TB, polls int) *pollBudget {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &pollBudget{Context: ctx, polls: polls}
}

func (b *pollBudget) Err() error {
	if b.polls <= 0 {
		return context.Canceled
	}
	b.polls--
	return nil
}

// probLists evaluates c with the literal-list engine whatever its
// width, so that the two engines can be compared on one compiled DNF.
func (c *Compiled) probLists(ctx context.Context) (p float64, err error) {
	if err := ctx.Err(); err != nil {
		return math.NaN(), err
	}
	if c.isTrue || len(c.clauses) == 0 {
		return c.Prob(), nil
	}
	e := c.listEngine(ctx)
	defer e.finish(nil, &p, &err)
	return e.prob(c.clauses), nil
}

// FuzzProbEnginesAgree checks the mask engine against the literal-list
// engine where brute force cannot follow: tables of 13–64 events and up
// to 32 clauses of 1–6 literals. On the same compiled DNF the two agree
// within 1e-12, both stay in [0, 1], and a Monte-Carlo estimate lies
// within five standard errors of the exact value. An input on which
// either engine passes a million expansion nodes is skipped.
func FuzzProbEnginesAgree(f *testing.F) {
	const (
		nodeBudget = 1_000_000
		samples    = 20_000
	)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, d := decodeFuzzDNF(data, fuzzDNFShape{minEvents: 13, maxEvents: 64, maxClauses: 32, minLits: 1, maxLits: 6})
		c, err := tab.CompileDNF(d)
		if err != nil {
			t.Fatalf("CompileDNF(%v): %v", d, err)
		}
		if !c.Small() {
			t.Fatalf("DNF over %d events did not take the mask form", len(c.probs))
		}
		masks, err := c.ProbCtx(newPollBudget(t, 1+nodeBudget/pollInterval))
		if err != nil {
			t.Skip("mask engine passed the node budget")
		}
		lists, err := c.probLists(newPollBudget(t, 1+nodeBudget/pollInterval))
		if err != nil {
			t.Skip("literal-list engine passed the node budget")
		}
		if math.Abs(masks-lists) > 1e-12 {
			t.Errorf("mask engine = %.17g, literal-list engine = %.17g (diff %g)\n dnf: %v\n table: %v",
				masks, lists, masks-lists, d, tab)
		}
		if masks < 0 || masks > 1 || lists < 0 || lists > 1 {
			t.Errorf("probability outside [0, 1]: mask engine %.17g, literal-list engine %.17g\n dnf: %v", masks, lists, d)
		}
		// Five standard errors, plus two samples: the normal interval is
		// too tight by about that much when few samples are expected to
		// hit. One draw in two million still falls outside, so a miss is
		// confirmed on an independent draw before it counts.
		tol := 5*math.Sqrt(masks*(1-masks)/samples) + 2.0/samples
		for seed := int64(1); ; seed++ {
			est := c.Estimate(samples, rand.New(rand.NewSource(seed)))
			if math.Abs(est-masks) <= tol {
				break
			}
			if seed == 2 {
				t.Errorf("Estimate = %v twice outside %v ± %v\n dnf: %v\n table: %v", est, masks, tol, d, tab)
				break
			}
		}
	})
}
