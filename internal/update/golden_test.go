package update

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/xmlio"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// sectionDoc builds a document in the shape of the repository
// benchmark (benchmark/workloads.go): a root A of keyed sections
// S(K:s<i>, T:<words>, C:c<k>) with event literals on half the
// sections and a third of the titles.
func sectionDoc(seed int64, sections, events, vocab int) *fuzzy.Tree {
	r := rand.New(rand.NewSource(seed))
	tab := event.NewTable()
	ids := make([]event.ID, events)
	for i := range ids {
		ids[i] = event.ID(fmt.Sprintf("e%d", i+1))
		tab.MustSet(ids[i], 0.1+0.8*r.Float64())
	}
	root := fuzzy.NewNode("A")
	cats := max(1, sections/8)
	for i := 0; i < sections; i++ {
		s := fuzzy.NewNode("S")
		if r.Intn(2) == 0 {
			s.WithCond(event.Cond(event.Pos(ids[r.Intn(len(ids))])))
		}
		t := fuzzy.NewLeaf("T", fmt.Sprintf("kw%02d kw%02d", r.Intn(vocab), r.Intn(vocab)))
		if r.Intn(10) < 3 {
			t.WithCond(event.Cond(event.Literal{Event: ids[r.Intn(len(ids))], Neg: r.Intn(3) == 0}))
		}
		s.Add(fuzzy.NewLeaf("K", fmt.Sprintf("s%d", i)), t, fuzzy.NewLeaf("C", fmt.Sprintf("c%d", (i*7)%cats)))
		root.Add(s)
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// goldenTransactions is applied in order to every golden document: the
// benchmark's insert and delete templates at confidence 1 and below,
// repeated deletes on one target, and transactions with many
// valuations.
var goldenTransactions = []struct {
	Query  string
	Conf   float64
	Insert string // "" deletes $v
}{
	{"A(S $v(K=s3))", 1, "G(L:w1)"},
	{"A(S $v(K=s3))", 0.9, "G(L:w2)"},
	{"A(S $v(K=s5))", 0.8, "G(L:w3)"},
	{"A(S $v(C=c1))", 0.9, "G(L:w4)"},
	{"A(S(G $v(L=w2)))", 0.8, ""},
	{"A(S(G $v(L=w2)))", 0.9, ""},
	{"A(S(G $v(L=w2)))", 1, ""},
	{"A(S(G $v(L=w1)))", 1, ""},
	{"A(S(K=s5, G $v))", 0.9, ""},
	{"A(S(C=c1, T $v))", 0.8, ""},
	{"A(S(K=s6, T $v), S(K=s7, T))", 0.9, ""},
	{"A(//L=w4 $v)", 0.9, ""},
	{"A(S $v(G(L=w4)))", 0.8, ""},
	{"A(S $v(K=s9999))", 0.9, "G(L:w5)"},
	{"A(S $v(K=s8))", 0.9, "G(L:w6)"},
	{"A(S $v(K=s8))", 0.8, "G(L:w7)"},
	{"A(S $v(K=s8, G))", 0.9, ""},
}

type goldenStep struct {
	SHA256 string     `json:"sha256"`
	Stats  FuzzyStats `json:"stats"`
}

// TestGoldenApply pins what ApplyFuzzy produces — the document bytes
// (as SHA-256 of its XML) and the full FuzzyStats after every
// transaction — to the file recorded before the matcher was rewritten.
func TestGoldenApply(t *testing.T) {
	docs := map[string]*fuzzy.Tree{
		"query_cold":     sectionDoc(1, 32, 16, 64),
		"prob_heavy":     sectionDoc(2, 24, 32, 3),
		"update_durable": sectionDoc(3, 32, 16, 64),
		"mixed_serving":  sectionDoc(4, 16, 8, 24),
	}
	got := map[string][]goldenStep{}
	for name, ft := range docs {
		for i, gt := range goldenTransactions {
			op := Delete("v")
			if gt.Insert != "" {
				op = Insert("v", tree.MustParse(gt.Insert))
			}
			next, stats, err := New(tpwj.MustParseQuery(gt.Query), gt.Conf, op).ApplyFuzzy(ft)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, i, err)
			}
			data, err := xmlio.DocXML(next)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, i, err)
			}
			sum := sha256.Sum256(data)
			got[name] = append(got[name], goldenStep{SHA256: hex.EncodeToString(sum[:]), Stats: *stats})
			ft = next
		}
	}
	path := filepath.Join("testdata", "golden_apply.json")
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
	var want map[string][]goldenStep
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d documents, golden file has %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Errorf("%s: %d steps, want %d", name, len(g), len(w))
			continue
		}
		for i := range w {
			if !reflect.DeepEqual(g[i], w[i]) {
				t.Errorf("%s step %d (%s):\n got  %+v\n want %+v", name, i, goldenTransactions[i].Query, g[i], w[i])
			}
		}
	}
}
