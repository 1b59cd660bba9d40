package xmlio

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/gen"
	"repro/internal/tree"
)

// The readers as they were written until the cursor replaced them:
// encoding/xml's token decoder, then a neutral xnode tree converted to
// the model. They are the oracle the cursor-based readers must match,
// accepting and refusing the same inputs and building the same trees.

// decoderParseDoc is ParseDoc over the token decoder.
func decoderParseDoc(data []byte) (*fuzzy.Tree, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	start, err := decNextStart(dec)
	if err != nil {
		return nil, err
	}
	if start.Name.Local != "pxml" {
		return nil, fmt.Errorf("xmlio: expected <pxml> root, found <%s>", start.Name.Local)
	}
	tab := event.NewTable()
	var root *fuzzy.Node
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "events":
				if err := decReadEvents(dec, tab); err != nil {
					return nil, err
				}
			case "root":
				inner, err := decNextStart(dec)
				if err != nil {
					return nil, err
				}
				n, err := decReadElementFrom(dec, inner, true, new([]byte))
				if err != nil {
					return nil, err
				}
				root = toFuzzy(n)
				if err := decSkipToEnd(dec); err != nil { // </root>
					return nil, err
				}
			default:
				return nil, fmt.Errorf("xmlio: unexpected element <%s> in <pxml>", t.Name.Local)
			}
		case xml.EndElement:
			if root == nil {
				return nil, errors.New("xmlio: <pxml> without <root>")
			}
			ft := &fuzzy.Tree{Root: root, Table: tab}
			if err := ft.Validate(); err != nil {
				return nil, err
			}
			return ft, nil
		case xml.CharData:
			if len(bytes.TrimSpace(t)) > 0 {
				return nil, errors.New("xmlio: stray text in <pxml>")
			}
		}
	}
}

// decoderParseTree is ParseTree over the token decoder.
func decoderParseTree(data []byte) (*tree.Node, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	start, err := decNextStart(dec)
	if err != nil {
		return nil, err
	}
	n, err := decReadElementFrom(dec, start, false, new([]byte))
	if err != nil {
		return nil, err
	}
	dn := toData(n)
	if err := dn.Validate(); err != nil {
		return nil, err
	}
	return dn, nil
}

// xnode is the neutral parsed form shared by plain and fuzzy readers.
type xnode struct {
	label    string
	value    string
	cond     event.Condition
	children []*xnode
}

func toData(n *xnode) *tree.Node {
	d := &tree.Node{Label: n.label, Value: n.value}
	if len(n.children) > 0 {
		d.Children = make([]*tree.Node, len(n.children))
		for i, c := range n.children {
			d.Children[i] = toData(c)
		}
	}
	return d
}

func toFuzzy(n *xnode) *fuzzy.Node {
	f := &fuzzy.Node{Label: n.label, Value: n.value, Cond: n.cond}
	if len(n.children) > 0 {
		f.Children = make([]*fuzzy.Node, len(n.children))
		for i, c := range n.children {
			f.Children[i] = toFuzzy(c)
		}
	}
	return f
}

// decReadElementFrom reads the element opened by start. text is
// scratch for character data shared by the whole parse.
func decReadElementFrom(dec *xml.Decoder, start xml.StartElement, allowCond bool, text *[]byte) (*xnode, error) {
	n := &xnode{label: start.Name.Local}
	for _, a := range start.Attr {
		if a.Name.Local == CondAttr {
			if !allowCond {
				return nil, fmt.Errorf("xmlio: cond attribute on <%s> in a plain tree", n.label)
			}
			c, err := event.ParseCondition(a.Value)
			if err != nil {
				return nil, fmt.Errorf("xmlio: <%s>: %w", n.label, err)
			}
			n.cond = c
			continue
		}
		n.children = append(n.children, &xnode{label: a.Name.Local, value: a.Value})
	}
	mark := len(*text)
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: inside <%s>: %w", n.label, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			child, err := decReadElementFrom(dec, t, allowCond, text)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
		case xml.EndElement:
			n.value = string(bytes.TrimSpace((*text)[mark:]))
			*text = (*text)[:mark]
			if n.value != "" && len(n.children) > 0 {
				return nil, fmt.Errorf("xmlio: mixed content in <%s>", n.label)
			}
			return n, nil
		case xml.CharData:
			*text = append(*text, t...)
		}
	}
}

func decReadEvents(dec *xml.Decoder, tab *event.Table) error {
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("xmlio: in <events>: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "event" {
				return fmt.Errorf("xmlio: unexpected <%s> in <events>", t.Name.Local)
			}
			var name, prob string
			for _, a := range t.Attr {
				switch a.Name.Local {
				case "name":
					name = a.Value
				case "prob":
					prob = a.Value
				}
			}
			p, err := strconv.ParseFloat(prob, 64)
			if err != nil {
				return fmt.Errorf("xmlio: event %q: bad probability %q", name, prob)
			}
			if err := tab.Set(event.ID(name), p); err != nil {
				return err
			}
			if err := decSkipToEnd(dec); err != nil {
				return err
			}
		case xml.EndElement:
			return nil
		case xml.CharData:
			if len(bytes.TrimSpace(t)) > 0 {
				return errors.New("xmlio: stray text in <events>")
			}
		}
	}
}

func decNextStart(dec *xml.Decoder) (xml.StartElement, error) {
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.StartElement{}, fmt.Errorf("xmlio: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return t, nil
		case xml.CharData:
			if len(bytes.TrimSpace(t)) > 0 {
				return xml.StartElement{}, errors.New("xmlio: unexpected text before element")
			}
		case xml.EndElement:
			return xml.StartElement{}, errors.New("xmlio: unexpected end element")
		}
	}
}

func decSkipToEnd(dec *xml.Decoder) error {
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("xmlio: %w", err)
		}
		switch tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			if depth == 0 {
				return nil
			}
			depth--
		}
	}
}

// checkDocAgainstDecoder parses data with ParseDoc and the decoder
// oracle and fails unless both refuse it or both build the same
// document: the same nodes in the same order, the same conditions, the
// same events in the same order.
func checkDocAgainstDecoder(t *testing.T, data []byte) {
	t.Helper()
	got, err := ParseDoc(data)
	want, werr := decoderParseDoc(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseDoc(%q):\n reader error %v\n decoder error %v", data, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseDoc(%q): reader built %s [%s], decoder %s [%s]",
			data, fuzzy.Format(got.Root), got.Table, fuzzy.Format(want.Root), want.Table)
	}
}

// checkTreeAgainstDecoder is checkDocAgainstDecoder for ParseTree.
func checkTreeAgainstDecoder(t *testing.T, data []byte) {
	t.Helper()
	got, err := ParseTree(data)
	want, werr := decoderParseTree(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseTree(%q):\n reader error %v\n decoder error %v", data, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTree(%q): reader built %s, decoder %s", data, tree.Format(got), tree.Format(want))
	}
}

// readerCases are inputs at the edges of what the decoder accepts:
// each construct of the grammar, well-formed and broken.
var readerCases = []string{
	``, ` `, `<A/>`, `<A>x</A>`, ` <A> x </A> trailing <<`, `<A></B>`, `<A>`, `</A>`, `<A/><B/>`,
	`<A><B>1</B><C>2</C></A>`, `<A>x<B/></A>`, `<A x="1"/>`, `<A x="1">t</A>`, `<A x='1' y="2"/>`,
	`<A x="1"y="2"/>`, `<A x=1/>`, `<A x/>`, `<A x = "1" />`, `<A x="<"/>`, `<A x="a>b"/>`,
	`<A x="&lt;&gt;&amp;&apos;&quot;"/>`, `<A x="&#65;&#x41;&#X41;"/>`, `<A>&#0;</A>`, `<A>&#xD800;</A>`,
	`<A>&#x110000;</A>`, `<A>&#xFFFE;</A>`, `<A>&#13;</A>`, `<A>&#;</A>`, `<A>&#x;</A>`, `<A>&nbsp;</A>`,
	`<A>&amp</A>`, `<A>&</A>`, `<A>&`, `<A>&#99999999999999999999999;</A>`, `<A>&#0065;</A>`,
	"<A>a\r\nb\rc\n\rd</A>", "<A x=\"a\r\nb\tc\"/>", "<A>\r<!---->\n</A>", `<A>]]></A>`, `<A>]]&gt;</A>`,
	`<A>]]<!---->></A>`, `<A><![CDATA[<&]]></A>`, `<A><![CDATA[x]]]></A>`, `<A><![CDATA[x</A>`,
	`<A><![CDAT[x]]></A>`, "<A><![CDATA[a\r\nb]]></A>", `<A><!-- c --></A>`, `<A><!-- a -- b --></A>`,
	`<A><!----></A>`, `<A><!---></A>`, `<A><!-x--></A>`, `<?xml version="1.0"?><A/>`,
	`<?xml version="1.1"?><A/>`, `<?xml version='1.0' encoding='UTF-8'?><A/>`,
	`<?xml encoding="latin1"?><A/>`, `<?xml?><A/>`, `<?pi data?><A><?pi x?>y</A>`, `<?xml`, `<??><A/>`,
	`<!DOCTYPE A><A/>`, `<!DOCTYPE A [<!ENTITY e "x">]><A/>`, `<!DOCTYPE A [<!-- > --> ]><A/>`,
	`<!DOCTYPE A "quoted > here"><A/>`, `<!>`, `<!x <<!- >><A/>`, `<p:A xmlns:p="u"></p:A>`,
	`<p:A></q:A>`, `<p:A></A>`, `<a:b:c/>`, `<A p:q:r="1"/>`, `<:A/>`, `<A:/>`, `<:/>`, `<A xmlns="u" xml:lang="en"/>`,
	`<1A/>`, `<-A/>`, `<.A/>`, `<A-1.b_c/>`, "<\u00e9l\u00e8ve/>", "<A\u00b7/>", "<\u00b7A/>", "<A\xff/>",
	"<A>\xff</A>", "<A>\u00a0x\u00a0</A>", "<A>\x01</A>", "<A>\t\n</A>", "<A x=\"\x01\"/>", "<A>\uFFFE</A>",
	"<A>\U0001F600</A>", "\ufeff<A/>", `<A / >`, `<A/ >`, `< A/>`, `</ A>`, `<A></A >`, `<A></A x>`,
	`<A><B></A></B>`, `<A>x<!-- c -->y</A>`, `<A>x<![CDATA[ ]]>y</A>`, `<A>  <B/>  </A>`,
}

// docCases are pxml inputs at the edges of ParseDoc's own structure.
var docCases = []string{
	`<pxml><events><event name="w" prob="0.5"/></events><root><A><B cond="w">x</B></A></root></pxml>`,
	`<pxml><root><A/></root></pxml>trailing <<< junk`,
	`<pxml><root><A/><B/></root></pxml>`,
	`<pxml><root><A/>text</root></pxml>`,
	`<pxml><root/></pxml>`,
	`<pxml><root></root></pxml>`,
	`<pxml><root><A/></root><root><B/></root></pxml>`,
	`<pxml><events><event name="w" prob="0.5">ignored<x/></event></events><root><A/></root></pxml>`,
	`<pxml><events><event name="w" prob="0.5"/><event name="w" prob="0.7"/></events><root><A/></root></pxml>`,
	`<pxml><events> x </events><root><A/></root></pxml>`,
	`<pxml><events><e/></events><root><A/></root></pxml>`,
	`<pxml><events><event prob="0.5"/></events><root><A/></root></pxml>`,
	`<pxml><events><event name="w"/></events><root><A/></root></pxml>`,
	`<pxml><events><event name="w" prob="NaN"/></events><root><A/></root></pxml>`,
	`<pxml><events><event p:name="w" prob="1"/></events><root><A><B cond="w"/></A></root></pxml>`,
	`<pxml><events><event name="w" prob="1"/></events><root><A><B cond="w" cond="!w"/></A></root></pxml>`,
	`<pxml><events><event name="w" prob="1"/></events><root><A><B x:cond="w, !w"/></A></root></pxml>`,
	`<pxml><events><event name="w" prob="1"/></events><root><A><B cond=""/></A></root></pxml>`,
	`<pxml><events><event name="w" prob="1"/></events><root><A><B cond="!!w ~w &#xAC;w"/></A></root></pxml>`,
	`<pxml><events><event name="w" prob="1"/></events><root><A><B cond="w!"/></A></root></pxml>`,
	`<pxml><root><A cond="w"/></root></pxml>`,
	`<pxml><root><A x="1">v</A></root></pxml>`,
	`<pxml><root><A x="1"><B/></A></root></pxml>`,
	`<pxml> <!-- c --> <?pi?> <root> <A/> </root> </pxml>`,
	`<pxml><other/></pxml>`,
	`<pxml>text</pxml>`,
	`<pxml></pxml>`,
	`<px:pxml><root><A/></root></px:pxml>`,
	`<notpxml/>`,
	`<pxml><root><A/></root>`,
	`<pxml><root><A/></root></pxmlx>`,
}

func TestReaderMatchesDecoder(t *testing.T) {
	for _, s := range readerCases {
		checkTreeAgainstDecoder(t, []byte(s))
		checkDocAgainstDecoder(t, []byte("<pxml><root>"+s+"</root></pxml>"))
	}
	for _, s := range docCases {
		checkDocAgainstDecoder(t, []byte(s))
		checkTreeAgainstDecoder(t, []byte(s))
	}
	for _, data := range docSeeds(t) {
		checkDocAgainstDecoder(t, data)
		checkTreeAgainstDecoder(t, data)
	}
}

// TestNameTablesMatchDecoder asks the decoder, for every code point of
// the Basic Multilingual Plane and a sample of the others, whether it
// may begin a name and continue one, and checks the cursor's tables say
// the same.
func TestNameTablesMatchDecoder(t *testing.T) {
	valid := func(name string) bool {
		tok, err := xml.NewDecoder(strings.NewReader("<" + name + "/>")).Token()
		se, ok := tok.(xml.StartElement)
		return err == nil && ok && se.Name.Space == "" && se.Name.Local == name
	}
	for r := rune(0); r <= utf8.MaxRune; r++ {
		if r == 0x10000 {
			r += 0x1000 - 1 // one code point in 4096 above the BMP
			continue
		}
		if r > 0x10000 && r%0x1000 != 0 || r >= 0xD800 && r <= 0xDFFF {
			continue
		}
		s := string(r)
		if got, want := isName([]byte(s)), valid(s); got != want {
			t.Errorf("%U starts a name: cursor %v, decoder %v", r, got, want)
		}
		if got, want := isName([]byte("a"+s)), valid("a"+s); got != want {
			t.Errorf("%U continues a name: cursor %v, decoder %v", r, got, want)
		}
	}
}

// docSeeds returns pxml documents to start from: the pages of the
// journal fixture, and documents of the workloads' shape.
func docSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	pages, _ := filepath.Glob("../warehouse/testdata/journal-pr18/*/*.pxml")
	more, _ := filepath.Glob("../warehouse/testdata/journal-pr18/*/docs/*.pxml")
	for _, p := range append(pages, more...) {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	if len(seeds) == 0 {
		tb.Fatal("no pxml fixtures found")
	}
	for seed := int64(1); seed <= 3; seed++ {
		data, err := DocXML(gen.Sections(rand.New(rand.NewSource(seed)), 4))
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzParseDocMatchesDecoder: on every input, ParseDoc and the
// decoder oracle accept or refuse alike and build the same document.
func FuzzParseDocMatchesDecoder(f *testing.F) {
	for _, data := range docSeeds(f) {
		f.Add(data)
	}
	for _, s := range docCases {
		f.Add([]byte(s))
	}
	for _, s := range readerCases {
		f.Add([]byte("<pxml><root>" + s + "</root></pxml>"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDocAgainstDecoder(t, data)
	})
}

// FuzzParseTreeMatchesDecoder is FuzzParseDocMatchesDecoder for plain
// trees.
func FuzzParseTreeMatchesDecoder(f *testing.F) {
	for _, s := range readerCases {
		f.Add([]byte(s))
	}
	for _, data := range docSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTreeAgainstDecoder(t, data)
	})
}

// BenchmarkParseDoc parses the document BenchmarkDocXML writes, with
// the reader and with the decoder it replaced.
func BenchmarkParseDoc(b *testing.B) {
	data, err := DocXML(benchDoc())
	if err != nil {
		b.Fatal(err)
	}
	for _, impl := range []struct {
		name string
		fn   func([]byte) (*fuzzy.Tree, error)
	}{
		{"reader", ParseDoc},
		{"decoder", decoderParseDoc},
	} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := impl.fn(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
