package exp

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/gen"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/warehouse"
)

// RunE7 measures fuzzy-data simplification (the perspectives slide):
// sizes before and after, and semantic preservation.
func RunE7() *Table {
	t := &Table{
		ID:     "E7",
		Title:  "fuzzy data simplification",
		Ref:    "slide 19",
		Header: []string{"document", "nodes before", "nodes after", "changes", "time", "semantics"},
		OK:     true,
	}

	docs := []struct {
		name string
		ft   *fuzzy.Tree
	}{
		{"slide-15 output, w3 certain", slide15CertainOutput()},
		{"cleaning feed (n=6)", mustApply(gen.CleaningFeed(rand.New(rand.NewSource(3)), 6))},
		{"dependent deletions (k=5)", mustApply(gen.DependentDeletions(5))},
		{"random with redundancy", redundantFuzzy(rand.New(rand.NewSource(4)))},
	}
	for _, d := range docs {
		before, err := d.ft.Expand()
		if err != nil {
			t.OK = false
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		work := d.ft.Clone()
		sizeBefore := work.Size()
		var stats fuzzy.SimplifyStats
		dur := timeIt(2*time.Millisecond, func() {
			w2 := d.ft.Clone()
			stats = w2.Simplify()
			work = w2
		})
		after, err := work.Expand()
		preserved := err == nil && before.Equal(after, 1e-9)
		if !preserved {
			t.OK = false
		}
		t.AddRow(d.name, fmt.Sprint(sizeBefore), fmt.Sprint(work.Size()),
			fmt.Sprintf("%d", stats.Total()), us(dur)+" µs", fmt.Sprintf("preserved=%v", preserved))
	}
	t.Notes = append(t.Notes, "simplification never changes the possible-worlds semantics (tested)")
	return t
}

// slide15CertainOutput is the slide-15 result with the confidence event
// pinned to 1, which simplification can fold away.
func slide15CertainOutput() *fuzzy.Tree {
	return fuzzy.MustParseTree("A(B[w1], C[!w1 w2], C[w1 w2 !w3], D[w1 w2 w3])",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7, "w3": 1})
}

func mustApply(w *gen.Workload) *fuzzy.Tree {
	ft, _, err := w.Apply()
	if err != nil {
		panic(err)
	}
	return ft
}

// redundantFuzzy builds a random fuzzy tree and injects redundancy:
// every node's condition is duplicated onto its children.
func redundantFuzzy(r *rand.Rand) *fuzzy.Tree {
	ft := gen.Fuzzy(r, gen.FuzzyConfig{Events: 4, Tree: gen.TreeConfig{Depth: 4, MaxFanout: 3}})
	var push func(n *fuzzy.Node)
	push = func(n *fuzzy.Node) {
		for _, c := range n.Children {
			c.Cond = c.Cond.And(n.Cond)
			push(c)
		}
	}
	push(ft.Root)
	return ft
}

// RunE8 exercises the warehouse: bulk insertion throughput, query
// latency against document size, and recovery.
func RunE8() *Table {
	t := &Table{
		ID:     "E8",
		Title:  "warehouse: update throughput, query latency, durability",
		Ref:    "slides 3, 16",
		Header: []string{"doc nodes", "create", "update (tx)", "query", "reopen+recover"},
		OK:     true,
	}
	for _, n := range []int{100, 1000, 5000} {
		r := rand.New(rand.NewSource(int64(n)))
		data := gen.TreeOfSize(r, n, gen.TreeConfig{})
		ft := &fuzzy.Tree{Root: fuzzy.FromData(data), Table: event.NewTable()}

		dir, err := os.MkdirTemp("", "pxbench-wh-*")
		if err != nil {
			t.OK = false
			t.Notes = append(t.Notes, err.Error())
			return t
		}
		func() {
			defer os.RemoveAll(dir)
			w, err := warehouse.Open(dir)
			if err != nil {
				t.OK = false
				t.Notes = append(t.Notes, err.Error())
				return
			}

			start := time.Now()
			if err := w.Create("doc", ft); err != nil {
				t.OK = false
				t.Notes = append(t.Notes, err.Error())
				return
			}
			dCreate := time.Since(start)

			tx := update.New(tpwj.MustParseQuery("A $a"), 0.9,
				update.Insert("a", tree.MustParse("N:new")))
			start = time.Now()
			if _, err := w.Update("doc", tx); err != nil {
				t.OK = false
				t.Notes = append(t.Notes, err.Error())
				return
			}
			dUpdate := time.Since(start)

			q := tpwj.MustParseQuery("A(N $x)")
			var answers []tpwj.ProbAnswer
			dQuery := timeIt(2*time.Millisecond, func() {
				answers, err = w.Query("doc", q)
				if err != nil {
					panic(err)
				}
			})
			if len(answers) == 0 {
				t.OK = false
				t.Notes = append(t.Notes, "inserted node not found by query")
			}
			w.Close()

			start = time.Now()
			w2, err := warehouse.Open(dir)
			if err != nil {
				t.OK = false
				t.Notes = append(t.Notes, err.Error())
				return
			}
			if _, err := w2.Get("doc"); err != nil {
				t.OK = false
				t.Notes = append(t.Notes, "document lost after reopen")
			}
			dReopen := time.Since(start)
			w2.Close()

			t.AddRow(fmt.Sprint(n), us(dCreate)+" µs", us(dUpdate)+" µs",
				us(dQuery)+" µs", us(dReopen)+" µs")
		}()
	}
	t.Notes = append(t.Notes,
		"every update is journaled with its full post-state and applied with atomic file replacement")
	return t
}

// RunE9 measures Monte-Carlo probability estimation accuracy against the
// exact Shannon expansion, over random DNFs.
func RunE9() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Monte-Carlo answer-probability estimation vs exact",
		Ref:    "slide 13 + perspectives",
		Header: []string{"samples", "mean |error|", "max |error|", "time per DNF"},
		OK:     true,
	}
	// A pool of random DNFs over 8 events.
	r := rand.New(rand.NewSource(9))
	tab := event.NewTable()
	var ids []event.ID
	for i := 0; i < 8; i++ {
		id, _ := tab.Fresh("e", 0.1+0.8*r.Float64())
		ids = append(ids, id)
	}
	randDNF := func() event.DNF {
		var d event.DNF
		k := 2 + r.Intn(6)
		for i := 0; i < k; i++ {
			var c event.Condition
			m := 1 + r.Intn(3)
			for j := 0; j < m; j++ {
				c = append(c, event.Literal{Event: ids[r.Intn(len(ids))], Neg: r.Intn(2) == 0})
			}
			d = append(d, c.Normalize())
		}
		return d
	}
	const pool = 20
	dnfs := make([]event.DNF, pool)
	exact := make([]float64, pool)
	for i := range dnfs {
		dnfs[i] = randDNF()
		p, err := tab.ProbDNF(dnfs[i])
		if err != nil {
			panic(err)
		}
		exact[i] = p
	}

	for _, samples := range []int{100, 1000, 10000, 100000} {
		var meanErr, maxErr float64
		rmc := rand.New(rand.NewSource(int64(samples)))
		start := time.Now()
		for i, d := range dnfs {
			est, err := tab.EstimateDNF(d, samples, rmc)
			if err != nil {
				panic(err)
			}
			e := math.Abs(est - exact[i])
			meanErr += e
			if e > maxErr {
				maxErr = e
			}
		}
		elapsed := time.Since(start) / pool
		meanErr /= pool
		t.AddRow(fmt.Sprint(samples), fmt.Sprintf("%.5f", meanErr),
			fmt.Sprintf("%.5f", maxErr), us(elapsed)+" µs")
		// 1/sqrt(n) convergence: at 100k samples the mean error should
		// be well below 1%.
		if samples == 100000 && meanErr > 0.01 {
			t.OK = false
			t.Notes = append(t.Notes, "Monte-Carlo did not converge")
		}
	}
	t.Notes = append(t.Notes, "error shrinks as 1/sqrt(samples); exact Shannon expansion is the reference")
	return t
}

// RunE10 measures query-evaluation scaling in document size, pattern
// size, and joins (complexity analysis, perspectives slide).
func RunE10() *Table {
	t := &Table{
		ID:     "E10",
		Title:  "query evaluation scaling (plain evaluation)",
		Ref:    "slides 6, 19",
		Header: []string{"doc nodes", "pattern", "joins", "matches", "time"},
		OK:     true,
	}
	patterns := []struct {
		name  string
		query string
	}{
		{"//leaf", "//C $x"},
		{"chain-3", "A(//C $x(//E $y))"},
		{"star-2", "A(//B $x, //C $y)"},
		{"join", "A(//B $x, //C $y) where $x = $y"},
	}
	for _, n := range []int{100, 1000, 10000} {
		r := rand.New(rand.NewSource(int64(n)))
		doc := gen.TreeOfSize(r, n, gen.TreeConfig{})
		for _, p := range patterns {
			q := tpwj.MustParseQuery(p.query)
			var matches int
			d := timeIt(3*time.Millisecond, func() {
				m, err := tpwj.CountMatches(q, doc)
				if err != nil {
					panic(err)
				}
				matches = m
			})
			t.AddRow(fmt.Sprint(n), p.name, fmt.Sprint(len(q.Joins)),
				fmt.Sprint(matches), us(d)+" µs")
		}
	}
	t.Notes = append(t.Notes,
		"evaluation is polynomial in document size for fixed patterns; join selectivity dominates the star/join shapes")
	return t
}
