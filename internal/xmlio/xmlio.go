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
//
// The readers (ParseDoc, ReadDoc, ParseTree, ReadTree) parse the bytes
// in one pass with a Cursor and build the model's nodes directly. They
// accept exactly the documents encoding/xml's decoder accepts in its
// default strict mode, and build the same trees; the tests keep that
// decoder as their oracle (FuzzParseDocMatchesDecoder,
// FuzzParseTreeMatchesDecoder). That grammar is XML 1.0 as the
// decoder reads it:
//
//   - an optional XML declaration, which must declare version 1.0 (or
//     none) and UTF-8 (or no encoding), and other processing
//     instructions anywhere, passed over;
//   - comments anywhere ("--" only as the end of one), passed over;
//   - directives such as a document type declaration, internal subset
//     included, passed over: nothing they declare is used;
//   - elements whose names are XML names and may carry one name-space
//     prefix, which is dropped (the label is the local name), and whose
//     end tags repeat the start tag's name, prefix included;
//   - attributes with quoted values, without '<'; each becomes a child
//     leaf before the element's children, except cond;
//   - character data and CDATA sections, with the five predefined
//     entities and decimal or hexadecimal character references
//     resolved, "\r\n" and a lone '\r' read as '\n', and "]]>" refused
//     outside CDATA; text must be UTF-8 in the XML character range. An
//     element's value is its own text with white space trimmed, and
//     text beside child elements is refused.
//
// Parsing stops at the end tag of the document element: nothing after
// it is read. No construct the decoder accepts is refused; the readers
// do not resolve name-space prefixes to URIs, which no reader looks at.
package xmlio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
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
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlio: %w", err)
	}
	return ParseTree(data)
}

// ParseTree parses a plain data tree from an XML byte slice.
func ParseTree(data []byte) (*tree.Node, error) {
	return NewCursor(data).Subtree()
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
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlio: %w", err)
	}
	return ParseDoc(data)
}

// ParseDoc parses a fuzzy document from an XML byte slice and
// validates it.
func ParseDoc(data []byte) (*fuzzy.Tree, error) {
	c := NewCursor(data)
	if err := c.nextStart(); err != nil {
		return nil, err
	}
	if string(c.local) != "pxml" {
		return nil, fmt.Errorf("xmlio: expected <pxml> root, found <%s>", c.local)
	}
	tab := event.NewTable()
	r := reader[*fuzzy.Node]{c: c, fuzzy: true, build: fuzzyNode}
	var root *fuzzy.Node
	for {
		kind, err := c.Next()
		if err != nil {
			return nil, fmt.Errorf("xmlio: %w", err)
		}
		switch kind {
		case StartElement:
			switch string(c.local) {
			case "events":
				if err := readEvents(c, tab); err != nil {
					return nil, err
				}
			case "root":
				if err := c.nextStart(); err != nil {
					return nil, err
				}
				if root, err = r.element(); err != nil {
					return nil, err
				}
				if err := c.Skip(); err != nil { // </root>
					return nil, fmt.Errorf("xmlio: %w", err)
				}
			default:
				return nil, fmt.Errorf("xmlio: unexpected element <%s> in <pxml>", c.local)
			}
		case EndElement:
			if root == nil {
				return nil, errors.New("xmlio: <pxml> without <root>")
			}
			ft := &fuzzy.Tree{Root: root, Table: tab}
			if err := ft.Validate(); err != nil {
				return nil, err
			}
			return ft, nil
		case CharData:
			if len(bytes.TrimSpace(c.text)) > 0 {
				return nil, errors.New("xmlio: stray text in <pxml>")
			}
		}
	}
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

// --- internal: element reading ------------------------------------------

// reader builds the model's nodes of type N straight from a cursor's
// tokens, each node's Children allocated at exact size and every label
// and value copied out of the input: a parsed document is retained for
// as long as its version lives, so it must neither carry append slack
// nor pin the bytes it was read from. Labels are interned per parse.
type reader[N any] struct {
	c *Cursor
	// fuzzy: cond attributes carry conditions; in a plain tree they are
	// an error.
	fuzzy   bool
	build   func(label, value string, cond event.Condition, children []N) N
	labels  map[string]string
	byFirst [256]string // the last label interned, by first byte
	// conds maps each distinct cond attribute value to its parsed
	// condition, which the nodes carrying it share: conditions are
	// never written in place.
	conds map[string]event.Condition
	kids  []N    // children of the open elements, innermost last
	text  []byte // character data of the open elements, innermost last
}

func fuzzyNode(label, value string, cond event.Condition, children []*fuzzy.Node) *fuzzy.Node {
	return &fuzzy.Node{Label: label, Value: value, Cond: cond, Children: children}
}

func dataNode(label, value string, _ event.Condition, children []*tree.Node) *tree.Node {
	return &tree.Node{Label: label, Value: value, Children: children}
}

func (r *reader[N]) intern(b []byte) string {
	// The last label with b's first byte answers most lookups with one
	// comparison; names are never empty.
	last := &r.byFirst[b[0]]
	if *last == string(b) {
		return *last
	}
	if s, ok := r.labels[string(b)]; ok {
		*last = s
		return s
	}
	if r.labels == nil {
		r.labels = make(map[string]string)
	}
	s := string(b)
	r.labels[s] = s
	*last = s
	return s
}

// element reads the element whose start tag the cursor stands on, up
// to and including its end tag. Attributes become leading child leaves
// (the paper's model draws no attribute/element distinction), except
// cond; the value is the element's own character data, trimmed.
func (r *reader[N]) element() (N, error) {
	var zero N
	c := r.c
	label := r.intern(c.local)
	var cond event.Condition
	mark := len(r.kids)
	for _, a := range c.attrs {
		if string(a.Local) == CondAttr {
			if !r.fuzzy {
				return zero, fmt.Errorf("xmlio: cond attribute on <%s> in a plain tree", label)
			}
			cc, ok := r.conds[string(a.Value)]
			if !ok {
				var err error
				if cc, err = event.ParseCondition(string(a.Value)); err != nil {
					return zero, fmt.Errorf("xmlio: <%s>: %w", label, err)
				}
				if r.conds == nil {
					r.conds = make(map[string]event.Condition)
				}
				cc = slices.Clip(cc)
				r.conds[string(a.Value)] = cc
			}
			cond = cc
			continue
		}
		r.kids = append(r.kids, r.build(r.intern(a.Local), string(a.Value), nil, nil))
	}
	tmark := len(r.text)
	for {
		kind, err := c.Next()
		if err != nil {
			return zero, fmt.Errorf("xmlio: inside <%s>: %w", label, err)
		}
		switch kind {
		case StartElement:
			child, err := r.element()
			if err != nil {
				return zero, err
			}
			r.kids = append(r.kids, child)
		case CharData:
			r.text = append(r.text, c.text...)
		case EndElement:
			value := string(bytes.TrimSpace(r.text[tmark:]))
			r.text = r.text[:tmark]
			kids := r.kids[mark:]
			if value != "" && len(kids) > 0 {
				return zero, fmt.Errorf("xmlio: mixed content in <%s>", label)
			}
			var children []N
			if len(kids) > 0 {
				children = make([]N, len(kids))
				copy(children, kids)
				clear(kids)
				r.kids = r.kids[:mark]
			}
			return r.build(label, value, cond, children), nil
		}
	}
}

// Subtree reads the next element, with its whole subtree, as a plain
// data tree, leaving the cursor just after its end tag. Only white
// space, comments, processing instructions and directives may come
// before the element. The xupdate package reads inline insertion
// content with it.
func (c *Cursor) Subtree() (*tree.Node, error) {
	if err := c.nextStart(); err != nil {
		return nil, err
	}
	r := reader[*tree.Node]{c: c, build: dataNode}
	n, err := r.element()
	if err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

func readEvents(c *Cursor, tab *event.Table) error {
	for {
		kind, err := c.Next()
		if err != nil {
			return fmt.Errorf("xmlio: in <events>: %w", err)
		}
		switch kind {
		case StartElement:
			if string(c.local) != "event" {
				return fmt.Errorf("xmlio: unexpected <%s> in <events>", c.local)
			}
			var name, prob []byte
			for _, a := range c.attrs {
				switch string(a.Local) {
				case "name":
					name = a.Value
				case "prob":
					prob = a.Value
				}
			}
			p, err := strconv.ParseFloat(string(prob), 64)
			if err != nil {
				return fmt.Errorf("xmlio: event %q: bad probability %q", name, prob)
			}
			if err := tab.Set(event.ID(name), p); err != nil {
				return err
			}
			if err := c.Skip(); err != nil {
				return fmt.Errorf("xmlio: %w", err)
			}
		case EndElement:
			return nil
		case CharData:
			if len(bytes.TrimSpace(c.text)) > 0 {
				return errors.New("xmlio: stray text in <events>")
			}
		}
	}
}

// nextStart advances to the next start tag, past white space.
func (c *Cursor) nextStart() error {
	for {
		kind, err := c.Next()
		if err != nil {
			return fmt.Errorf("xmlio: %w", err)
		}
		switch kind {
		case StartElement:
			return nil
		case CharData:
			if len(bytes.TrimSpace(c.text)) > 0 {
				return errors.New("xmlio: unexpected text before element")
			}
		case EndElement:
			return errors.New("xmlio: unexpected end element")
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
