// Benchmarks, one family per experiment of the reproduction (exp.All
// indexes them; `pxbench -list` names them). The same code paths are
// regenerated as paper-style tables by cmd/pxbench; here they run under
// testing.B for statistically robust numbers:
//
//	go test -bench=. -benchmem
package fuzzyxml_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	fuzzyxml "repro"
	"repro/internal/event"
	"repro/internal/exp"
	"repro/internal/fuzzy"
	"repro/internal/gen"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/warehouse"
)

// --- E2: possible-worlds expansion blow-up --------------------------------

func BenchmarkE2Expand(b *testing.B) {
	for _, m := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("events=%d", m), func(b *testing.B) {
			ft := exp.SectionDoc(m)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ft.Expand(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: query evaluation, fuzzy direct vs possible-worlds baseline -------

func BenchmarkE3QueryFuzzy(b *testing.B) {
	for _, m := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("events=%d", m), func(b *testing.B) {
			ft := exp.SectionDoc(m)
			q := fuzzyxml.MustParseQuery("A(//L $x)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fuzzyxml.EvalQuery(q, ft); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE3QueryWorlds(b *testing.B) {
	for _, m := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("events=%d", m), func(b *testing.B) {
			ft := exp.SectionDoc(m)
			q := fuzzyxml.MustParseQuery("A(//L $x)")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pw, err := ft.Expand()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fuzzyxml.EvalQueryOnWorlds(q, pw, fuzzyxml.MinimalSubtree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE3QueryMonteCarlo(b *testing.B) {
	ft := exp.SectionDoc(12)
	q := fuzzyxml.MustParseQuery("A(//L $x)")
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fuzzyxml.EvalQueryMC(q, ft, 10000, r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: update application, fuzzy direct vs possible-worlds baseline -----

func BenchmarkE4UpdateFuzzy(b *testing.B) {
	for _, m := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("events=%d", m), func(b *testing.B) {
			ft := exp.SectionDoc(m)
			tx := fuzzyxml.NewTransaction(fuzzyxml.MustParseQuery("A(S $x)"), 0.9,
				fuzzyxml.InsertOp("x", fuzzyxml.MustParseTree("N:new")))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := fuzzyxml.ApplyUpdate(tx, ft); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE4UpdateWorlds(b *testing.B) {
	for _, m := range []int{4, 8, 12} {
		b.Run(fmt.Sprintf("events=%d", m), func(b *testing.B) {
			ft := exp.SectionDoc(m)
			tx := fuzzyxml.NewTransaction(fuzzyxml.MustParseQuery("A(S $x)"), 0.9,
				fuzzyxml.InsertOp("x", fuzzyxml.MustParseTree("N:new")))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pw, err := ft.Expand()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fuzzyxml.ApplyUpdateToWorlds(tx, pw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: deletion blow-up ---------------------------------------------------

func BenchmarkE5DeletionGrowthDependent(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var finalSize int
			for i := 0; i < b.N; i++ {
				w := gen.DependentDeletions(k)
				final, _, err := w.Apply()
				if err != nil {
					b.Fatal(err)
				}
				finalSize = final.Size()
			}
			b.ReportMetric(float64(finalSize), "final-nodes")
		})
	}
}

func BenchmarkE5DeletionGrowthIndependent(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var finalSize int
			for i := 0; i < b.N; i++ {
				w := gen.IndependentDeletions(k)
				final, _, err := w.Apply()
				if err != nil {
					b.Fatal(err)
				}
				finalSize = final.Size()
			}
			b.ReportMetric(float64(finalSize), "final-nodes")
		})
	}
}

// --- E6: the slide-15 conditional replacement ------------------------------

func BenchmarkE6ConditionalReplacement(b *testing.B) {
	doc := exp.Slide15Doc()
	tx := exp.Slide15Tx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := tx.ApplyFuzzy(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: simplification ------------------------------------------------------

func BenchmarkE7Simplify(b *testing.B) {
	base, _, err := gen.DependentDeletions(6).Apply()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		work := base.Clone()
		work.Simplify()
	}
}

// --- E8: warehouse -----------------------------------------------------------

func BenchmarkE8WarehouseUpdate(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			dir, err := os.MkdirTemp("", "bench-wh-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			w, err := warehouse.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			data := gen.TreeOfSize(rand.New(rand.NewSource(1)), n, gen.TreeConfig{})
			ft := fuzzyxml.NewFuzzyTree(fuzzy.FromData(data), event.NewTable())
			if err := w.Create("doc", ft); err != nil {
				b.Fatal(err)
			}
			tx := update.New(tpwj.MustParseQuery("A $a"), 0.9,
				update.Insert("a", tree.MustParse("N:new")))
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.Update("doc", tx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE8WarehouseQuery(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			dir, err := os.MkdirTemp("", "bench-wh-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			w, err := warehouse.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			data := gen.TreeOfSize(rand.New(rand.NewSource(1)), n, gen.TreeConfig{})
			ft := fuzzyxml.NewFuzzyTree(fuzzy.FromData(data), event.NewTable())
			if err := w.Create("doc", ft); err != nil {
				b.Fatal(err)
			}
			q := tpwj.MustParseQuery("//C $x")
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.Query("doc", q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: Monte-Carlo estimation ------------------------------------------------

func BenchmarkE9MonteCarlo(b *testing.B) {
	tab := event.NewTable()
	var d event.DNF
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		id, _ := tab.Fresh("e", 0.1+0.8*r.Float64())
		d = append(d, event.Cond(event.Pos(id)))
	}
	for _, samples := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("samples=%d", samples), func(b *testing.B) {
			rmc := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tab.EstimateDNF(d, samples, rmc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E10: query scaling ---------------------------------------------------------

func BenchmarkE10QueryScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		doc := gen.TreeOfSize(rand.New(rand.NewSource(int64(n))), n, gen.TreeConfig{})
		for _, p := range []struct{ name, query string }{
			{"leaf", "//C $x"},
			{"chain", "A(//C $x(//E $y))"},
			{"join", "A(//B $x, //C $y) where $x = $y"},
		} {
			b.Run(fmt.Sprintf("nodes=%d/%s", n, p.name), func(b *testing.B) {
				q := tpwj.MustParseQuery(p.query)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tpwj.CountMatches(q, doc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Ablations (design choices of the probability engine) ----------------------

// BenchmarkAblationProbDNF compares the memoized Shannon expansion with
// brute-force world enumeration for the same DNFs. The workload builder
// is exp.AblationDNF, which TestFaultOverhead in internal/exp also
// evaluates, so the two stay comparable.
func BenchmarkAblationProbDNF(b *testing.B) {
	for _, m := range []int{6, 10, 14} {
		tab, d := exp.AblationDNF(m)
		b.Run(fmt.Sprintf("shannon/events=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tab.ProbDNF(d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("brute/events=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tab.ProbDNFBrute(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSimplifyBeforeQuery measures whether simplifying a
// redundant document first pays off for querying. The document carries
// dead branches (their guard event has probability 0) that raw matching
// keeps visiting and simplification removes.
func BenchmarkAblationSimplifyBeforeQuery(b *testing.B) {
	base := exp.SectionDoc(10)
	base.Table.MustSet("never", 0)
	for i := 0; i < 10; i++ {
		dead := fuzzy.NewNode("S", fuzzy.NewLeaf("L", "dead"), fuzzy.NewLeaf("M", "dead"))
		base.Root.Add(dead.WithCond(event.Cond(event.Pos("never"))))
	}
	simplified := base.Clone()
	simplified.Simplify()
	q := tpwj.MustParseQuery("A(//L $x)")
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpwj.EvalFuzzy(q, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simplified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpwj.EvalFuzzy(q, simplified); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationOptimizer compares matching with and without
// selectivity-based reordering where reordering genuinely pays: a highly
// selective branch (a label that barely occurs) placed after a frequent
// one. The naive order re-fails the rare branch once per frequent
// binding; the optimized order fails once.
func BenchmarkAblationOptimizer(b *testing.B) {
	doc := gen.TreeOfSize(rand.New(rand.NewSource(5)), 5000,
		gen.TreeConfig{Labels: []string{"A", "B", "B", "B", "B", "C"}})
	doc.Add(tree.NewLeaf("Rare", "x")) // exactly one Rare node
	naive := tpwj.MustParseQuery(`A(//B $b, //Rare="missing" $r)`)
	opt := tpwj.Optimize(naive, tree.NewIndex(doc))
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpwj.CountMatches(naive, doc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tpwj.CountMatches(opt, doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCanonicalNormalize measures possible-worlds
// normalization (canonical-form hashing), the backbone of every
// worlds-side operation.
func BenchmarkAblationCanonicalNormalize(b *testing.B) {
	ft := exp.SectionDoc(12)
	pw, err := ft.ExpandUnmerged()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pw.Normalize()
	}
}

// --- Server: HTTP query throughput ----------------------------------------

// BenchmarkServerQuery measures end-to-end HTTP query latency against
// pxserve's handler stack, with sequential and parallel clients. Every
// request evaluates the query on the document's current snapshot.
func BenchmarkServerQuery(b *testing.B) {
	wh, err := fuzzyxml.OpenWarehouse(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := wh.Create("doc", exp.SectionDoc(8)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(fuzzyxml.NewServer(wh, fuzzyxml.ServerOptions{}))
	b.Cleanup(func() {
		ts.Close()
		wh.Close()
	})
	body := []byte(`{"query":"A(//L $x)"}`)
	post := func() error {
		resp, err := http.Post(ts.URL+"/docs/doc/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := post(); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
