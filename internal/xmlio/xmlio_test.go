package xmlio

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/gen"
	"repro/internal/tree"
)

func TestReadTreeBasic(t *testing.T) {
	n, err := ParseTree([]byte(`<A><B>foo</B><B>foo</B><E><C>bar</C></E><D><F>nee</F></D></A>`))
	if err != nil {
		t.Fatal(err)
	}
	want := tree.MustParse("A(B:foo, B:foo, E(C:bar), D(F:nee))")
	if !tree.Equal(n, want) {
		t.Errorf("parsed %s", tree.Format(n))
	}
}

func TestReadTreeWhitespace(t *testing.T) {
	n, err := ParseTree([]byte("<A>\n  <B>foo</B>\n</A>\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(n, tree.MustParse("A(B:foo)")) {
		t.Errorf("parsed %s", tree.Format(n))
	}
}

func TestReadTreeAttributesBecomeChildren(t *testing.T) {
	n, err := ParseTree([]byte(`<person name="Alice" age="30"><city>Paris</city></person>`))
	if err != nil {
		t.Fatal(err)
	}
	want := tree.MustParse("person(name:Alice, age:30, city:Paris)")
	if !tree.Equal(n, want) {
		t.Errorf("parsed %s", tree.Format(n))
	}
}

func TestReadTreeErrors(t *testing.T) {
	cases := []string{
		``,
		`<A>`,
		`<A>text<B/></A>`, // mixed content
		`<A cond="w1"/>`,  // cond in plain tree
		`text<A/>`,        // stray text
		`<A></B>`,         // mismatched tags
	}
	for _, s := range cases {
		if _, err := ParseTree([]byte(s)); err == nil {
			t.Errorf("ParseTree(%q) succeeded, want error", s)
		}
	}
}

func TestWriteTreeRoundTrip(t *testing.T) {
	orig := tree.MustParse("A(B:foo, B:foo, E(C:bar), D(F:nee))")
	data, err := TreeXML(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTree(data)
	if err != nil {
		t.Fatalf("re-parse of %s: %v", data, err)
	}
	if !tree.Equal(orig, back) {
		t.Errorf("round trip changed tree:\n%s\n%s", tree.Format(orig), tree.Format(back))
	}
}

func TestWriteTreeEscaping(t *testing.T) {
	orig := tree.New("A", tree.NewLeaf("B", `<value> & "quotes"`))
	data, err := TreeXML(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTree(data)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Equal(orig, back) {
		t.Error("escaping round trip failed")
	}
}

func TestWriteTreeRejectsBadLabels(t *testing.T) {
	bad := tree.New("has space")
	if _, err := TreeXML(bad); err == nil {
		t.Error("label with space accepted")
	}
	bad2 := tree.New("1leading")
	if _, err := TreeXML(bad2); err == nil {
		t.Error("leading digit accepted")
	}
}

func TestReadDocSlide12(t *testing.T) {
	docXML := `<pxml>
  <events>
    <event name="w1" prob="0.8"/>
    <event name="w2" prob="0.7"/>
  </events>
  <root>
    <A>
      <B cond="w1 !w2">foo</B>
      <C><D cond="w2"/></C>
    </A>
  </root>
</pxml>`
	ft, err := ParseDoc([]byte(docXML))
	if err != nil {
		t.Fatal(err)
	}
	want := fuzzy.MustParse("A(B[w1 !w2]:foo, C(D[w2]))")
	if !fuzzy.Equal(ft.Root, want) {
		t.Errorf("parsed %s", fuzzy.Format(ft.Root))
	}
	if p, _ := ft.Table.Prob("w1"); p != 0.8 {
		t.Errorf("w1 prob = %v", p)
	}
	if p, _ := ft.Table.Prob("w2"); p != 0.7 {
		t.Errorf("w2 prob = %v", p)
	}
}

func TestReadDocErrors(t *testing.T) {
	cases := []struct {
		name, xml string
	}{
		{"wrong root", `<notpxml/>`},
		{"no root element", `<pxml><events/></pxml>`},
		{"bad prob", `<pxml><events><event name="w" prob="abc"/></events><root><A/></root></pxml>`},
		{"prob out of range", `<pxml><events><event name="w" prob="1.5"/></events><root><A/></root></pxml>`},
		{"unknown event used", `<pxml><events/><root><A><B cond="zz"/></A></root></pxml>`},
		{"conditioned root", `<pxml><events><event name="w" prob="0.5"/></events><root><A cond="w"/></root></pxml>`},
		{"stray element", `<pxml><bogus/></pxml>`},
		{"bad condition", `<pxml><events/><root><A><B cond="!"/></A></root></pxml>`},
		{"stray text", `<pxml>hello<root><A/></root></pxml>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseDoc([]byte(tc.xml)); err == nil {
				t.Errorf("accepted %q", tc.xml)
			}
		})
	}
}

func TestWriteDocRoundTrip(t *testing.T) {
	orig := fuzzy.MustParseTree("A(B[w1 !w2]:foo, C(D[w2]))",
		map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	data, err := DocXML(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDoc(data)
	if err != nil {
		t.Fatalf("re-parse of %s: %v", data, err)
	}
	if !fuzzy.Equal(orig.Root, back.Root) {
		t.Errorf("round trip changed tree:\n%s\n%s", fuzzy.Format(orig.Root), fuzzy.Format(back.Root))
	}
	if orig.Table.String() != back.Table.String() {
		t.Errorf("round trip changed table: %s vs %s", orig.Table, back.Table)
	}
}

func TestWriteDocDeterministic(t *testing.T) {
	ft := fuzzy.MustParseTree("A(B[w1], C[w2])",
		map[event.ID]float64{"w2": 0.7, "w1": 0.8})
	d1, err := DocXML(ft)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DocXML(ft)
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Error("serialization not deterministic")
	}
	if !strings.Contains(string(d1), `name="w1"`) {
		t.Error("events missing from output")
	}
}

func TestDocRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ft := randomXMLSafeFuzzyTree(r)
		data, err := DocXML(ft)
		if err != nil {
			t.Log(err)
			return false
		}
		back, err := ParseDoc(data)
		if err != nil {
			t.Logf("re-parse: %v\n%s", err, data)
			return false
		}
		return fuzzy.Equal(ft.Root, back.Root) && ft.Table.String() == back.Table.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomXMLSafeFuzzyTree generates fuzzy trees whose labels are valid XML
// names (values are arbitrary).
func randomXMLSafeFuzzyTree(r *rand.Rand) *fuzzy.Tree {
	tab := event.NewTable()
	ids := []event.ID{"e1", "e2", "e3"}
	for _, id := range ids {
		tab.MustSet(id, r.Float64())
	}
	randCond := func() event.Condition {
		var c event.Condition
		for _, id := range ids {
			switch r.Intn(4) {
			case 0:
				c = append(c, event.Pos(id))
			case 1:
				c = append(c, event.Neg(id))
			}
		}
		return c.Normalize()
	}
	labels := []string{"alpha", "beta", "gamma_x", "d-e.f"}
	values := []string{"", "v", "weird <&> value", "espaço"}
	var build func(d int) *fuzzy.Node
	build = func(d int) *fuzzy.Node {
		n := &fuzzy.Node{Label: labels[r.Intn(len(labels))], Cond: randCond()}
		if d <= 0 || r.Intn(3) == 0 {
			n.Value = values[r.Intn(len(values))]
			return n
		}
		for i := 0; i < r.Intn(3); i++ {
			n.Children = append(n.Children, build(d-1))
		}
		if len(n.Children) == 0 {
			n.Value = values[r.Intn(len(values))]
		}
		return n
	}
	root := build(3)
	root.Cond = nil
	return &fuzzy.Tree{Root: root, Table: tab}
}

// TestParsedDocRetainsNoSlack pins what a parsed document keeps alive:
// a snapshot's tree is resident for as long as its version lives, so
// values must not pin the parser's text scratch and Children must carry
// no append slack. It measures the live heap, so it must not run in
// parallel with other tests.
func TestParsedDocRetainsNoSlack(t *testing.T) {
	data, err := DocXML(gen.Sections(rand.New(rand.NewSource(1)), 512))
	if err != nil {
		t.Fatal(err)
	}
	ft, err := ParseDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	nodes := ft.Size()
	ft.Root.Walk(func(n *fuzzy.Node) bool {
		if cap(n.Children) != len(n.Children) {
			t.Errorf("<%s> Children: len %d, cap %d", n.Label, len(n.Children), cap(n.Children))
			return false
		}
		return true
	})
	perNode := float64(retainedBy(func() { ft = nil })) / float64(nodes)
	t.Logf("%d nodes, %.1f retained bytes per node", nodes, perNode)
	if perNode > 112 {
		t.Errorf("a parsed document retains %.1f bytes per node, want at most 112 (124 before values were copied out of the text scratch)", perNode)
	}
}

// retainedBy returns how many bytes of live heap die with drop: the
// live heap after full collections, minus the live heap after drop and
// another. The first collection is doubled because sync.Pool contents
// survive one as victims. What drop releases must be unreachable
// otherwise.
func retainedBy(drop func()) int64 {
	var live, freed runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&live)
	drop()
	runtime.GC()
	runtime.ReadMemStats(&freed)
	return int64(live.HeapAlloc) - int64(freed.HeapAlloc)
}
