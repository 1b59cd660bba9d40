package tpwj_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/xpath"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// sectionShape mirrors the document shapes of the repository benchmark
// (benchmark/workloads.go): a root A of keyed sections
// S(K:s<i>, T:<words>, C:c<k>) with event literals on sections and
// titles. Groups says every Groups-th section also carries a
// conditioned G(L:w<i>), as the benchmark's updates insert.
type sectionShape struct {
	Sections, Events int
	SCond            float64
	TLits            int
	Vocab, Words     int
	Groups           int
}

// The four benchmark shapes at a size a golden file can hold.
var goldenShapes = map[string]sectionShape{
	"query_cold":     {Sections: 32, Events: 16, SCond: 0.5, TLits: 1, Vocab: 64, Words: 2},
	"prob_heavy":     {Sections: 24, Events: 32, SCond: 1, TLits: 2, Vocab: 3, Words: 1},
	"update_durable": {Sections: 32, Events: 16, SCond: 0.5, TLits: 1, Vocab: 64, Words: 2, Groups: 3},
	"mixed_serving":  {Sections: 16, Events: 8, SCond: 0.5, TLits: 1, Vocab: 24, Words: 2, Groups: 4},
}

func sectionDoc(seed int64, sh sectionShape) *fuzzy.Tree {
	r := rand.New(rand.NewSource(seed))
	tab := event.NewTable()
	ids := make([]event.ID, sh.Events)
	for i := range ids {
		ids[i] = event.ID(fmt.Sprintf("e%d", i+1))
		tab.MustSet(ids[i], 0.1+0.8*r.Float64())
	}
	lit := func() event.Literal {
		return event.Literal{Event: ids[r.Intn(len(ids))], Neg: r.Intn(3) == 0}
	}
	root := fuzzy.NewNode("A")
	cats := max(1, sh.Sections/8)
	for i := 0; i < sh.Sections; i++ {
		s := fuzzy.NewNode("S")
		if r.Float64() < sh.SCond {
			s.WithCond(event.Cond(event.Pos(ids[r.Intn(len(ids))])))
		}
		title := ""
		for k := 0; k < sh.Words; k++ {
			if k > 0 {
				title += " "
			}
			title += fmt.Sprintf("kw%02d", r.Intn(sh.Vocab))
		}
		t := fuzzy.NewLeaf("T", title)
		var lits event.Condition
		for k := 0; k < sh.TLits && (sh.TLits > 1 || r.Intn(10) < 3); k++ {
			lits = append(lits, lit())
		}
		if len(lits) > 0 {
			t.WithCond(lits)
		}
		s.Add(fuzzy.NewLeaf("K", fmt.Sprintf("s%d", i)), t, fuzzy.NewLeaf("C", fmt.Sprintf("c%d", (i*7)%cats)))
		if sh.Groups > 0 && i%sh.Groups == 0 {
			s.Add(fuzzy.NewNode("G", fuzzy.NewLeaf("L", fmt.Sprintf("w%d", i))).WithCond(event.Cond(lit())))
		}
		root.Add(s)
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// goldenQueries are the benchmark's query templates plus one query per
// matcher feature the templates do not reach.
var goldenQueries = []struct{ Name, Query, Syntax string }{
	{"point", "A(S(K=s3, T $x))", ""},
	{"point_xpath", "/A/S[K='s3']/T", "xpath"},
	{"child", "A(S(C=c1, T $x))", ""},
	{"descendant", "A(//C=c1 $x)", ""},
	{"join", "A(S(K=s3, C $x), S(C $y, T $t)) where $x = $y", ""},
	{"all_titles", "A(//T $x)", ""},
	{"groups", "A(S(G(L $l)))", ""},
	{"two_branch", "A(S(K=s5), S(T=kw01))", ""},
	{"anywhere", "//S(C=c1, K $k)", ""},
	{"wildcard", "A(*(*=c1 $x, K $k))", ""},
	{"ordered", "ordered A(S(K=s2), S(K $k, C=c0))", ""},
	{"negated", "A(S(C=c0, K $k, !G(L)))", ""},
	{"negated_descendant", "//S $s(K, !//L, C=c1)", ""},
}

type goldenAnswer struct {
	Tree  string `json:"tree"`
	Cond  string `json:"cond"`
	PBits string `json:"p_bits"`
}

// TestGoldenAnswers pins what EvalFuzzy returns — every answer's tree
// and condition, exactly and in returned order, and its probability to
// 1e-12 — to the recorded file. The last bits of a probability are not
// defined: they follow the order in which the engine expands the DNF.
func TestGoldenAnswers(t *testing.T) {
	got := map[string][]goldenAnswer{}
	for shape, sh := range goldenShapes {
		ft := sectionDoc(1, sh)
		for _, gq := range goldenQueries {
			var q *tpwj.Query
			var err error
			if gq.Syntax == "xpath" {
				q, err = xpath.Compile(gq.Query)
			} else {
				q, err = tpwj.ParseQuery(gq.Query)
			}
			if err != nil {
				t.Fatalf("%s: %v", gq.Name, err)
			}
			answers, err := tpwj.EvalFuzzy(q, ft)
			if err != nil {
				t.Fatalf("%s/%s: %v", shape, gq.Name, err)
			}
			out := []goldenAnswer{}
			for _, a := range answers {
				out = append(out, goldenAnswer{
					Tree:  tree.Format(a.Tree),
					Cond:  a.Cond.String(),
					PBits: fmt.Sprintf("%016x", math.Float64bits(a.P)),
				})
			}
			got[shape+"/"+gq.Name] = out
		}
	}
	compareGolden(t, filepath.Join("testdata", "golden_answers.json"), got)
}

// pOf decodes a golden answer's probability.
func pOf(t *testing.T, a goldenAnswer) float64 {
	t.Helper()
	bits, err := strconv.ParseUint(a.PBits, 16, 64)
	if err != nil {
		t.Fatalf("p_bits %q: %v", a.PBits, err)
	}
	return math.Float64frombits(bits)
}

// compareGolden checks got against the JSON file at path, or rewrites
// the file under -update.
func compareGolden(t *testing.T, path string, got map[string][]goldenAnswer) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]goldenAnswer
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, golden file has %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d answers, want %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i].Tree != w[i].Tree || g[i].Cond != w[i].Cond || math.Abs(pOf(t, g[i])-pOf(t, w[i])) > 1e-12 {
				t.Errorf("%s answer %d:\n got  %+v\n want %+v", name, i, g[i], w[i])
			}
		}
	}
}
