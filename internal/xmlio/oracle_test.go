package xmlio

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tree"
)

// encoderDocXML is DocXML as it was written until the direct writer
// replaced it: the document driven token by token through
// encoding/xml's encoder. It is the oracle the writer must match byte
// for byte and error for error. With validate false the fuzzy.Validate
// gate is skipped on purpose, so trees a warehouse never stores (text
// beside child elements) still reach the indent state machine.
func encoderDocXML(ft *fuzzy.Tree, validate bool) ([]byte, error) {
	if validate {
		if err := ft.Validate(); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	pxml := xml.StartElement{Name: xml.Name{Local: "pxml"}}
	events := xml.StartElement{Name: xml.Name{Local: "events"}}
	rootEl := xml.StartElement{Name: xml.Name{Local: "root"}}
	tokens := []xml.Token{pxml, events}
	for _, id := range ft.Table.Events() {
		p, _ := ft.Table.Prob(id)
		ev := xml.StartElement{
			Name: xml.Name{Local: "event"},
			Attr: []xml.Attr{
				{Name: xml.Name{Local: "name"}, Value: string(id)},
				{Name: xml.Name{Local: "prob"}, Value: strconv.FormatFloat(p, 'g', -1, 64)},
			},
		}
		tokens = append(tokens, ev, ev.End())
	}
	tokens = append(tokens, events.End(), rootEl)
	for _, tok := range tokens {
		if err := enc.EncodeToken(tok); err != nil {
			return nil, err
		}
	}
	if err := encodeFuzzy(enc, ft.Root); err != nil {
		return nil, err
	}
	for _, tok := range []xml.Token{rootEl.End(), pxml.End()} {
		if err := enc.EncodeToken(tok); err != nil {
			return nil, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeFuzzy(enc *xml.Encoder, n *fuzzy.Node) error {
	if err := checkName(n.Label); err != nil {
		return err
	}
	start := xml.StartElement{Name: xml.Name{Local: n.Label}}
	if c := n.Cond.Normalize(); len(c) > 0 {
		start.Attr = append(start.Attr, xml.Attr{
			Name:  xml.Name{Local: CondAttr},
			Value: c.String(),
		})
	}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	if n.Value != "" {
		if err := enc.EncodeToken(xml.CharData(n.Value)); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := encodeFuzzy(enc, c); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}

// encoderTreeXML is the same oracle for plain trees (TreeXML).
func encoderTreeXML(n *tree.Node) ([]byte, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := encodeData(enc, n); err != nil {
		return nil, err
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeData(enc *xml.Encoder, n *tree.Node) error {
	if err := checkName(n.Label); err != nil {
		return err
	}
	start := xml.StartElement{Name: xml.Name{Local: n.Label}}
	if err := enc.EncodeToken(start); err != nil {
		return err
	}
	if n.Value != "" {
		if err := enc.EncodeToken(xml.CharData(n.Value)); err != nil {
			return err
		}
	}
	for _, c := range n.Children {
		if err := encodeData(enc, c); err != nil {
			return err
		}
	}
	return enc.EncodeToken(start.End())
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstEncoder requires the writer and the encoder to agree on
// ft: validated (DocXML), unvalidated (the indent state machine on
// trees Validate rejects), and on the underlying plain tree (TreeXML).
func checkAgainstEncoder(t *testing.T, ft *fuzzy.Tree) []byte {
	t.Helper()
	got, gotErr := DocXML(ft)
	want, wantErr := encoderDocXML(ft, true)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("DocXML error = %v, encoder's = %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("DocXML differs from the encoder:\n%q\n%q", got, want)
	}
	if ft == nil || ft.Root == nil || ft.Table == nil {
		return got
	}

	w := writer{}
	rawErr := w.doc(ft, ft.Table.Events())
	want, wantErr = encoderDocXML(ft, false)
	if errText(rawErr) != errText(wantErr) {
		t.Fatalf("unvalidated writer error = %v, encoder's = %v", rawErr, wantErr)
	}
	if rawErr == nil && !bytes.Equal(w.buf, want) {
		t.Fatalf("unvalidated writer differs from the encoder:\n%q\n%q", w.buf, want)
	}

	plain := ft.Underlying()
	gotTree, gotErr := TreeXML(plain)
	wantTree, wantErr := encoderTreeXML(plain)
	if errText(gotErr) != errText(wantErr) || !bytes.Equal(gotTree, wantTree) {
		t.Fatalf("TreeXML = %q, %v; encoder's = %q, %v", gotTree, gotErr, wantTree, wantErr)
	}
	return got
}

// TestDocXMLMatchesEncoder runs hand-picked shapes through both
// serializers, and pins the format itself on the first of them.
func TestDocXMLMatchesEncoder(t *testing.T) {
	tab := func(probs map[event.ID]float64) *event.Table {
		tb := event.NewTable()
		for id, p := range probs {
			tb.MustSet(id, p)
		}
		return tb
	}
	node := func(label, value string, cond event.Condition, children ...*fuzzy.Node) *fuzzy.Node {
		return &fuzzy.Node{Label: label, Value: value, Cond: cond, Children: children}
	}
	w1w2 := tab(map[event.ID]float64{"w1": 0.8, "w2": 0.7})
	cases := []struct {
		name string
		ft   *fuzzy.Tree
	}{
		{"slide12", &fuzzy.Tree{Table: w1w2, Root: node("A", "", nil,
			node("B", "foo", event.Cond(event.Pos("w1"), event.Neg("w2"))),
			node("C", "", nil, node("D", "", event.Cond(event.Pos("w2")))))}},
		{"no events, lone root", &fuzzy.Tree{Table: tab(nil), Root: node("A", "", nil)}},
		{"lone root with text", &fuzzy.Tree{Table: tab(nil), Root: node("A", "x", nil)}},
		{"empty and unnormalized conditions", &fuzzy.Tree{Table: w1w2, Root: node("A", "", event.Condition{},
			node("B", "", event.Condition{}),
			node("C", "", event.Cond(event.Neg("w2"), event.Pos("w1"), event.Neg("w2"), event.Pos("w2"))))}},
		{"markup and whitespace in text", &fuzzy.Tree{Table: tab(nil), Root: node("A", "", nil,
			node("B", "<a href=\"x\">'&'</a> ]]>", nil),
			node("C", " lead\ttab\nnewline\rreturn trail ", nil),
			node("D", "\n", nil))}},
		{"characters XML cannot carry", &fuzzy.Tree{Table: tab(nil), Root: node("A", "", nil,
			node("B", "nul\x00 unit\x1f del\x7f", nil),
			node("C", "replacement \uFFFD, invalid \xff, truncated \xe6\x97", nil),
			node("D", "noncharacters \uFFFE \uFFFF, surrogate \xed\xa0\x80, astral \U0001F600", nil))}},
		{"markup in event names and probabilities in every format", &fuzzy.Tree{
			Table: tab(map[event.ID]float64{"a<b": 1, "c\"d'e": 0, "f&g": 1e-7, "h\ni\tj": 0.1 + 0.2, "k\xffl": 1.0 / 3}),
			Root: node("A", "", nil,
				node("B", "", event.Cond(event.Neg("a<b"), event.Pos("c\"d'e"), event.Pos("f&g"))),
				node("C", "", event.Cond(event.Pos("h\ni\tj"), event.Neg("k\xffl"))))}},
		{"non-ASCII and punctuated labels", &fuzzy.Tree{Table: tab(nil), Root: node("_r", "", nil,
			node("é-1", "v", nil), node("日本.語", "", nil, node("a_b", "", nil)), node("x\xffy", "", nil))}},
		{"deep chain", &fuzzy.Tree{Table: tab(nil), Root: node("A", "", nil,
			node("B", "", nil, node("C", "", nil, node("D", "", nil, node("E", "leaf", nil)))),
			node("F", "", nil))}},
		{"text beside children (rejected by Validate)", &fuzzy.Tree{Table: tab(nil), Root: node("A", "text", nil,
			node("B", "", nil), node("C", "more", nil, node("D", "", nil)))}},
		{"bad label below a good one", &fuzzy.Tree{Table: tab(nil), Root: node("A", "", nil,
			node("B", "", nil), node("1x", "", nil), node("", "", nil))}},
		{"label with a space", &fuzzy.Tree{Table: tab(nil), Root: node("a b", "", nil)}},
		{"conditioned root", &fuzzy.Tree{Table: w1w2, Root: node("A", "", event.Cond(event.Pos("w1")))}},
		{"unknown event", &fuzzy.Tree{Table: w1w2, Root: node("A", "", nil, node("B", "", event.Cond(event.Pos("zz"))))}},
		{"nil root", &fuzzy.Tree{Table: w1w2}},
		{"nil table", &fuzzy.Tree{Root: node("A", "", nil)}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := checkAgainstEncoder(t, tc.ft)
			if i == 0 {
				const want = `<pxml>
  <events>
    <event name="w1" prob="0.8"></event>
    <event name="w2" prob="0.7"></event>
  </events>
  <root>
    <A>
      <B cond="w1 !w2">foo</B>
      <C>
        <D cond="w2"></D>
      </C>
    </A>
  </root>
</pxml>`
				if string(got) != want {
					t.Errorf("format changed:\n%s\nwant:\n%s", got, want)
				}
			}
		})
	}
}

// Palettes the fuzz target draws from. The first safe* entries of each
// survive a round trip through ParseDoc unchanged; the rest are there
// for the escaping and error paths (ParseDoc trims surrounding
// whitespace, splits conditions at blanks, and — like XML itself —
// cannot carry control characters or invalid UTF-8).
var (
	fuzzLabels = []string{"A", "b-c", "d.e_f", "x9", "é", "日本",
		"a\xffb", "→", "", "9x", "-a", ".a", "a b", "a<b", "a\"b"}
	safeLabels = 6
	fuzzTexts  = []string{"", "v", "foo bar", "<", ">", "&", "\"", "'", "]]>", "é", "\U0001F600", "\uFFFD", "a\nb", "a\tb", "a\rb",
		"\n", "\t", "\r", " ", "\x00", "\x1f", "\x7f", "\xff", "\xc3", "\xed\xa0\x80", "\uFFFE", "\uFFFF", "\u00a0"}
	safeTexts  = 15
	fuzzEvents = []event.ID{"w1", "w2", "e<3", "é", "a\"b", "x&y", "z'z",
		"bad\xff", "sp ace", "!neg", "new\nline", "tab\t", "c,d", "\x01"}
	safeEvents = 7
)

// fuzzTree decodes a byte string into a fuzzy tree over the palettes:
// a few events with probabilities, then nodes in preorder, each with a
// label, a value of up to three fragments (kept even when the node
// gets children, which Validate rejects), a condition of up to three
// literals (unsorted, repeated, contradictory, occasionally over an
// unknown event) and up to three children. roundTrips reports whether
// every choice came from the safe part of its palette.
func fuzzTree(data []byte) (ft *fuzzy.Tree, roundTrips bool) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	roundTrips = true
	pick := func(n, safe int) int {
		i := next() % n
		if i >= safe {
			roundTrips = false
		}
		return i
	}
	tab := event.NewTable()
	var ids []event.ID
	for n := next() % 5; n > 0; n-- {
		id := fuzzEvents[pick(len(fuzzEvents), safeEvents)]
		tab.MustSet(id, float64(next())/255)
		ids = append(ids, id)
	}
	nodes := 0
	var build func(depth int) *fuzzy.Node
	build = func(depth int) *fuzzy.Node {
		nodes++
		n := &fuzzy.Node{Label: fuzzLabels[pick(len(fuzzLabels), safeLabels)]}
		for k := next() % 4; k > 0; k-- {
			n.Value += fuzzTexts[pick(len(fuzzTexts), safeTexts)]
		}
		shape := next()
		switch {
		case shape%8 == 7:
			n.Cond = event.Condition{} // empty, not nil
		case shape%16 == 14:
			n.Cond = event.Cond(event.Pos("unknown"))
		case len(ids) > 0:
			for k := shape % 4; k > 0; k-- {
				n.Cond = append(n.Cond, event.Literal{Event: ids[next()%len(ids)], Neg: next()%2 == 1})
			}
		}
		if depth < 5 {
			for k := next() % 4; k > 0 && nodes < 64; k-- {
				n.Children = append(n.Children, build(depth+1))
			}
		}
		return n
	}
	root := build(0)
	return &fuzzy.Tree{Root: root, Table: tab}, roundTrips
}

// FuzzDocXMLMatchesEncoder: on every tree the byte string decodes to,
// the direct writer and the token encoder produce the same bytes or
// the same error, and what was written from round-trippable choices
// parses back to the tree it was written from.
func FuzzDocXMLMatchesEncoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 204, 1, 178, 0, 0, 0, 2, 1, 1, 1, 2, 0, 1, 0, 0, 2, 0, 1, 3, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{3, 2, 10, 4, 20, 5, 30, 4, 3, 3, 4, 5, 3, 0, 1, 1, 0, 2, 1, 3, 6, 2, 8, 12, 7, 1, 9, 0, 0, 0})
	f.Add([]byte{1, 7, 255, 6, 2, 19, 22, 1, 0, 0, 3, 8, 0, 0, 0, 12, 1, 15, 14, 0, 13, 3, 23, 24, 25, 6, 0})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, roundTrips := fuzzTree(data)
		out := checkAgainstEncoder(t, ft)
		if out == nil {
			return
		}
		back, err := ParseDoc(out)
		if !roundTrips {
			return // ParseDoc may refuse or normalize; it must only not panic
		}
		if err != nil {
			t.Fatalf("re-parse: %v\n%s", err, out)
		}
		if !fuzzy.Equal(ft.Root, back.Root) || ft.Table.String() != back.Table.String() {
			t.Fatalf("round trip changed the document:\n%s [%s]\n%s [%s]",
				fuzzy.Format(ft.Root), ft.Table, fuzzy.Format(back.Root), back.Table)
		}
	})
}

// benchDoc is a 256-section document of the shape the update_durable
// workload stores.
func benchDoc() *fuzzy.Tree {
	tab := event.NewTable()
	root := &fuzzy.Node{Label: "doc"}
	for i := 0; i < 256; i++ {
		id := event.ID(fmt.Sprintf("e%d", i%32))
		tab.MustSet(id, 0.5)
		root.Children = append(root.Children, &fuzzy.Node{Label: "section", Cond: event.Cond(event.Pos(id)), Children: []*fuzzy.Node{
			{Label: "title", Value: "alpha beta gamma"},
			{Label: "para", Value: "the quick brown fox jumps over the lazy dog", Cond: event.Cond(event.Neg(id))},
			{Label: "ref", Value: strconv.Itoa(i)},
		}})
	}
	return &fuzzy.Tree{Root: root, Table: tab}
}

// BenchmarkDocXML serializes benchDoc.
func BenchmarkDocXML(b *testing.B) {
	ft := benchDoc()
	for _, impl := range []struct {
		name string
		fn   func() ([]byte, error)
	}{
		{"writer", func() ([]byte, error) { return DocXML(ft) }},
		{"encoder", func() ([]byte, error) { return encoderDocXML(ft, true) }},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := impl.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
