package tpwj_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/event"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/xpath"
)

// diffAnswers describes the first difference between two answer lists
// — tree, condition (DNF or formula) or the bits of P — or returns "".
func diffAnswers(got, want []tpwj.ProbAnswer) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		switch {
		case tree.Format(g.Tree) != tree.Format(w.Tree):
			return fmt.Sprintf("answer %d: tree %s, want %s", i, tree.Format(g.Tree), tree.Format(w.Tree))
		case g.Cond.String() != w.Cond.String():
			return fmt.Sprintf("answer %d: cond %s, want %s", i, g.Cond, w.Cond)
		case formulaString(g.Formula) != formulaString(w.Formula):
			return fmt.Sprintf("answer %d: formula %s, want %s", i, g.Formula, w.Formula)
		case math.Float64bits(g.P) != math.Float64bits(w.P):
			return fmt.Sprintf("answer %d: P %.17g, want %.17g", i, g.P, w.P)
		}
	}
	return ""
}

// formulaString renders f, or "" for the nil Formula of a positive
// query's answer.
func formulaString(f event.Formula) string {
	if f == nil {
		return ""
	}
	return f.String()
}

// TestDocReuseIsStateless runs the golden queries on one Doc per
// shape, exact, Monte-Carlo at a fixed seed and symbolic, interleaved,
// twice and in both orders, and requires every result to equal a fresh
// per-call flatten's exactly: evaluation must leave nothing behind on
// the Doc a warehouse snapshot shares between all its readers.
func TestDocReuseIsStateless(t *testing.T) {
	ctx := context.Background()
	const samples, seed = 200, 7
	for shape, sh := range goldenShapes {
		ft := sectionDoc(1, sh)
		if err := ft.Validate(); err != nil {
			t.Fatal(err)
		}
		d := tpwj.FlattenFuzzy(ft)
		queries := make([]*tpwj.Query, len(goldenQueries))
		for i, gq := range goldenQueries {
			var err error
			if gq.Syntax == "xpath" {
				queries[i], err = xpath.Compile(gq.Query)
			} else {
				queries[i], err = tpwj.ParseQuery(gq.Query)
			}
			if err != nil {
				t.Fatalf("%s: %v", gq.Name, err)
			}
		}
		for pass := 0; pass < 2; pass++ {
			for k := range queries {
				i := k
				if pass == 1 {
					i = len(queries) - 1 - k
				}
				q, name := queries[i], shape+"/"+goldenQueries[i].Name
				check := func(mode string, got []tpwj.ProbAnswer, gotErr error, want []tpwj.ProbAnswer, wantErr error) {
					t.Helper()
					if gotErr != nil || wantErr != nil {
						t.Fatalf("%s %s pass %d: errors %v, %v", name, mode, pass, gotErr, wantErr)
					}
					if diff := diffAnswers(got, want); diff != "" {
						t.Errorf("%s %s pass %d on a reused Doc: %s", name, mode, pass, diff)
					}
				}
				got, gotErr := d.Exact(ctx, q)
				want, wantErr := tpwj.EvalFuzzy(q, ft)
				check("exact", got, gotErr, want, wantErr)
				got, gotErr = d.MonteCarlo(ctx, q, samples, rand.New(rand.NewSource(seed)))
				want, wantErr = tpwj.EvalFuzzyMonteCarlo(q, ft, samples, rand.New(rand.NewSource(seed)))
				check("mc", got, gotErr, want, wantErr)
				got, gotErr = d.Symbolic(ctx, q)
				want, wantErr = tpwj.EvalFuzzySymbolic(q, ft)
				check("symbolic", got, gotErr, want, wantErr)
			}
		}
	}
}
