// Package xmlio serializes the data model to and from XML, mirroring the
// storage layer of the paper's implementation (slide 16: file-system
// storage of probabilistic XML documents).
//
// Plain data trees map to ordinary XML elements; leaf values map to text
// content. Following the paper's model ("no distinction between attribute
// and element nodes"), XML attributes are parsed as child leaf nodes.
// Mixed content is rejected.
//
// Fuzzy documents use a small wrapper format:
//
//	<pxml>
//	  <events>
//	    <event name="w1" prob="0.8"/>
//	  </events>
//	  <root>
//	    <A>
//	      <B cond="w1 !w2">foo</B>
//	      <C><D cond="w2"/></C>
//	    </A>
//	  </root>
//	</pxml>
//
// where the reserved attribute cond carries the node's condition in the
// textual literal syntax ("w1 !w2").
package xmlio

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tree"
)

// CondAttr is the reserved attribute carrying fuzzy conditions.
const CondAttr = "cond"

// ReadTree parses a plain data tree from XML.
func ReadTree(r io.Reader) (*tree.Node, error) {
	n, err := readElement(xml.NewDecoder(r), false)
	if err != nil {
		return nil, err
	}
	dn := toData(n)
	if err := dn.Validate(); err != nil {
		return nil, err
	}
	return dn, nil
}

// ParseTree parses a plain data tree from an XML byte slice.
func ParseTree(data []byte) (*tree.Node, error) {
	return ReadTree(bytes.NewReader(data))
}

// ReadSubtree parses the next element (with its whole subtree) from an
// already-open decoder as a plain data tree, leaving the decoder
// positioned just after the element. The xupdate package uses it to read
// inline insertion content.
func ReadSubtree(dec *xml.Decoder) (*tree.Node, error) {
	n, err := readElement(dec, false)
	if err != nil {
		return nil, err
	}
	dn := toData(n)
	if err := dn.Validate(); err != nil {
		return nil, err
	}
	return dn, nil
}

// WriteTree serializes a plain data tree as indented XML.
func WriteTree(w io.Writer, n *tree.Node) error {
	data, err := TreeXML(n)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// TreeXML returns the XML serialization of a plain data tree.
func TreeXML(n *tree.Node) ([]byte, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	var w writer
	if err := w.data(n); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// ReadDoc parses a fuzzy document (<pxml> wrapper) and validates it.
func ReadDoc(r io.Reader) (*fuzzy.Tree, error) {
	dec := xml.NewDecoder(r)
	// Find the opening pxml element.
	start, err := nextStart(dec)
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
				if err := readEvents(dec, tab); err != nil {
					return nil, err
				}
			case "root":
				inner, err := nextStart(dec)
				if err != nil {
					return nil, err
				}
				root, err = readFuzzyElement(dec, inner)
				if err != nil {
					return nil, err
				}
				if err := skipToEnd(dec); err != nil { // </root>
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

// ParseDoc parses a fuzzy document from an XML byte slice.
func ParseDoc(data []byte) (*fuzzy.Tree, error) {
	return ReadDoc(bytes.NewReader(data))
}

// WriteDoc serializes a fuzzy document as indented XML, with events
// sorted by name for determinism.
func WriteDoc(w io.Writer, ft *fuzzy.Tree) error {
	data, err := DocXML(ft)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// DocXML returns the XML serialization of a fuzzy document.
func DocXML(ft *fuzzy.Tree) ([]byte, error) {
	if err := ft.Validate(); err != nil {
		return nil, err
	}
	events := ft.Table.Events()
	w := writer{buf: make([]byte, 0, 64+48*len(events)+sizeHint(ft.Root, 2))}
	if err := w.doc(ft, events); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// --- internal: generic element reading -----------------------------------

// xnode is the neutral parsed form shared by plain and fuzzy readers.
type xnode struct {
	label    string
	value    string
	cond     event.Condition
	children []*xnode
}

// toData and toFuzzy build the model's nodes with Children allocated
// at exact size: a parsed document is retained for as long as its
// version lives, so it must not carry append slack.
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

// readElement reads the next element (and its subtree) from the decoder.
// When allowCond is false, cond attributes are rejected.
func readElement(dec *xml.Decoder, allowCond bool) (*xnode, error) {
	start, err := nextStart(dec)
	if err != nil {
		return nil, err
	}
	return readElementFrom(dec, start, allowCond, new([]byte))
}

// readElementFrom reads the element opened by start. text is scratch
// for character data shared by the whole parse: an element collects its
// text past the length it found, and truncates back on return.
func readElementFrom(dec *xml.Decoder, start xml.StartElement, allowCond bool, text *[]byte) (*xnode, error) {
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
		// Attributes become child leaf nodes (the paper's model draws no
		// attribute/element distinction).
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
			child, err := readElementFrom(dec, t, allowCond, text)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, child)
		case xml.EndElement:
			// The value is a copy of the trimmed text at exact size (and
			// the empty string, no allocation, for whitespace only), so a
			// retained node keeps no scratch alive.
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

func readFuzzyElement(dec *xml.Decoder, start xml.StartElement) (*fuzzy.Node, error) {
	n, err := readElementFrom(dec, start, true, new([]byte))
	if err != nil {
		return nil, err
	}
	return toFuzzy(n), nil
}

func readEvents(dec *xml.Decoder, tab *event.Table) error {
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
			if err := skipToEnd(dec); err != nil {
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

// nextStart advances to the next StartElement, skipping whitespace,
// comments and processing instructions.
func nextStart(dec *xml.Decoder) (xml.StartElement, error) {
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

// skipToEnd consumes tokens until the end of the current element.
func skipToEnd(dec *xml.Decoder) error {
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

// --- internal: encoding ---------------------------------------------------

// checkName rejects labels that cannot be XML element names.
func checkName(label string) error {
	if label == "" {
		return errors.New("xmlio: empty label")
	}
	for i, r := range label {
		ok := r == '_' || r == '-' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0) || r > 127
		if !ok || (i == 0 && (r == '-' || r == '.')) {
			return fmt.Errorf("xmlio: label %q is not a valid XML element name", label)
		}
	}
	return nil
}

// writer produces, directly into one buffer, the bytes encoding/xml's
// token encoder writes under Indent("", "  ") for the same sequence of
// start, text and end tokens (the encoder itself is the oracle the
// tests compare against). depth, indentedIn and putNewline are the
// encoder's indent state: text follows its start tag directly, and a
// closing tag goes on a line of its own only after child elements.
type writer struct {
	buf        []byte
	depth      int
	indentedIn bool // a start tag was the last tag written
	putNewline bool // something precedes the next tag
}

// indent breaks the line before a start tag (delta 1) or, after child
// elements, before an end tag (delta -1).
func (w *writer) indent(delta int) {
	if delta < 0 {
		w.depth--
		if w.indentedIn {
			w.indentedIn = false
			return
		}
	}
	if w.putNewline {
		w.buf = append(w.buf, '\n')
	}
	w.putNewline = true
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, "  "...)
	}
	if delta > 0 {
		w.depth++
		w.indentedIn = true
	}
}

// open writes a start tag up to its name; attributes and the closing
// '>' follow from the caller.
func (w *writer) open(name string) {
	w.indent(1)
	w.buf = append(append(w.buf, '<'), name...)
}

func (w *writer) attr(name string) {
	w.buf = append(append(append(w.buf, ' '), name...), `="`...)
}

func (w *writer) close(name string) {
	w.indent(-1)
	w.buf = append(append(append(w.buf, "</"...), name...), '>')
}

func (w *writer) doc(ft *fuzzy.Tree, events []event.ID) error {
	w.open("pxml")
	w.buf = append(w.buf, '>')
	w.open("events")
	w.buf = append(w.buf, '>')
	for _, id := range events {
		p, _ := ft.Table.Prob(id)
		w.open("event")
		w.attr("name")
		w.buf = appendEscaped(w.buf, string(id), true)
		w.buf = append(w.buf, '"')
		w.attr("prob")
		w.buf = strconv.AppendFloat(w.buf, p, 'g', -1, 64)
		w.buf = append(w.buf, `">`...)
		w.close("event")
	}
	w.close("events")
	w.open("root")
	w.buf = append(w.buf, '>')
	if err := w.fuzzy(ft.Root); err != nil {
		return err
	}
	w.close("root")
	w.close("pxml")
	return nil
}

func (w *writer) data(n *tree.Node) error {
	if err := checkName(n.Label); err != nil {
		return err
	}
	w.open(n.Label)
	w.buf = append(w.buf, '>')
	w.buf = appendEscaped(w.buf, n.Value, false)
	for _, c := range n.Children {
		if err := w.data(c); err != nil {
			return err
		}
	}
	w.close(n.Label)
	return nil
}

func (w *writer) fuzzy(n *fuzzy.Node) error {
	if err := checkName(n.Label); err != nil {
		return err
	}
	w.open(n.Label)
	c := n.Cond
	if !canonical(c) {
		c = c.Normalize()
	}
	if len(c) > 0 {
		// The condition in its textual literal syntax, c.String().
		w.attr(CondAttr)
		for i, l := range c {
			if i > 0 {
				w.buf = append(w.buf, ' ')
			}
			if l.Neg {
				w.buf = append(w.buf, '!')
			}
			w.buf = appendEscaped(w.buf, string(l.Event), true)
		}
		w.buf = append(w.buf, '"')
	}
	w.buf = append(w.buf, '>')
	w.buf = appendEscaped(w.buf, n.Value, false)
	for _, c := range n.Children {
		if err := w.fuzzy(c); err != nil {
			return err
		}
	}
	w.close(n.Label)
	return nil
}

// canonical reports whether c is already what c.Normalize() returns —
// sorted by event then sign, no literal twice — as the conditions of
// stored documents are, so that writing them copies and sorts nothing.
func canonical(c event.Condition) bool {
	for i := 1; i < len(c); i++ {
		a, b := c[i-1], c[i]
		if a.Event > b.Event || a.Event == b.Event && (a.Neg || !b.Neg) {
			return false
		}
	}
	return true
}

// sizeHint estimates the serialized size of the subtree at the given
// depth, escapes not counted: DocXML presizes its buffer with it.
func sizeHint(n *fuzzy.Node, depth int) int {
	size := 2*(1+2*depth+len(n.Label)) + 4 + len(n.Value)
	for _, l := range n.Cond {
		size += len(l.Event) + 2
	}
	if len(n.Cond) > 0 {
		size += len(CondAttr) + 4
	}
	for _, c := range n.Children {
		size += sizeHint(c, depth+1)
	}
	return size
}

// appendEscaped appends s escaped as the encoder escapes attribute
// values (escapeNewline) and character data (newlines kept): the five
// markup characters, tab and carriage return become references, and
// what XML cannot carry at all — invalid UTF-8 and characters outside
// its character range — becomes U+FFFD.
func appendEscaped(buf []byte, s string, escapeNewline bool) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		} else if plainASCII[r] {
			i++
			continue
		}
		i += width
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			if !escapeNewline {
				continue
			}
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			if inCharacterRange(r) && (r != utf8.RuneError || width > 1) {
				continue
			}
			esc = "\uFFFD"
		}
		buf = append(append(buf, s[last:i-width]...), esc...)
		last = i
	}
	return append(buf, s[last:]...)
}

// plainASCII marks the ASCII characters appendEscaped copies through
// whatever escapeNewline says: all but the controls and the five
// markup characters.
var plainASCII = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"'&<>`, c)
	}
	return t
}()

// inCharacterRange reports whether r is in the XML character range
// (section 2.2 of the specification).
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
