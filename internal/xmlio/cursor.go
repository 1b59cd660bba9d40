package xmlio

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind is the kind of token a Cursor stands on.
type Kind uint8

// The tokens a Cursor returns. Comments, processing instructions and
// directives are read, checked and passed over: no reader of this
// module looks at them.
const (
	// StartElement is an opening tag; Local and Attrs describe it. A
	// self-closing tag is a StartElement followed by its EndElement.
	StartElement Kind = iota + 1
	// EndElement is a closing tag, checked against the open element.
	EndElement
	// CharData is a run of character data or a CDATA section; Text
	// holds it decoded.
	CharData
)

// Attr is one attribute of a start tag: its local name and its value,
// decoded. Both are valid only until the cursor moves.
type Attr struct {
	Local, Value []byte
}

// Cursor reads XML tokens directly from a byte slice. It returns what
// encoding/xml's Decoder.Token returns in its default mode (strict, no
// entity map, no charset reader) on the same bytes, error for error,
// without materializing a token: names and plain text are slices of
// the input, and only text with references or carriage returns is
// decoded, into scratch the cursor reuses. It reads no further than
// the token it returns, so bytes after the element a reader stops at
// are not looked at, as with the decoder.
//
// Like the decoder it checks that tags nest and that names, references
// and characters are well-formed; it does not resolve name-space
// prefixes (no reader looks at them) or any entity beyond the five
// predefined ones, and it ignores a document type declaration.
type Cursor struct {
	data []byte
	pos  int
	open [][]byte // raw names of the open elements, innermost last

	local     []byte // local part of the current start or end tag's name
	attrs     []Attr
	closeNext bool   // the current start tag was self-closing
	text      []byte // the current character data
	buf       []byte // scratch decoded character data lives in
	decoded   bool   // the last chars result is in buf, not the input
}

// NewCursor returns a cursor before the first token of data.
func NewCursor(data []byte) *Cursor {
	return &Cursor{data: data}
}

// Local returns the local name (the part after a name-space prefix) of
// the current start or end tag. It is a slice of the input.
func (c *Cursor) Local() []byte { return c.local }

// Attrs returns the attributes of the current start tag, in document
// order. They are valid until the cursor moves.
func (c *Cursor) Attrs() []Attr { return c.attrs }

// Text returns the current character data. It is valid until the
// cursor moves.
func (c *Cursor) Text() []byte { return c.text }

var errEOF = errors.New("XML syntax error: unexpected EOF")

func (c *Cursor) syntaxError(msg string) error {
	return fmt.Errorf("XML syntax error at byte %d: %s", c.pos, msg)
}

// Next advances to the next start tag, end tag or character data.
// Reaching the end of the input is an error, inside an element or not:
// every reader stops at the end tag of the element it reads.
func (c *Cursor) Next() (Kind, error) {
	if c.closeNext {
		c.closeNext = false
		c.open = c.open[:len(c.open)-1]
		return EndElement, nil
	}
	for {
		if c.pos >= len(c.data) {
			if len(c.open) > 0 {
				return 0, errEOF
			}
			return 0, errors.New("XML syntax error: EOF before the element")
		}
		if c.data[c.pos] != '<' {
			text, err := c.chars(0, false)
			if err != nil {
				return 0, err
			}
			c.text = text
			return CharData, nil
		}
		c.pos++
		b, err := c.mustGet()
		if err != nil {
			return 0, err
		}
		switch b {
		case '/':
			return c.endTag()
		case '?':
			err = c.procInst()
		case '!':
			if b, err = c.mustGet(); err != nil {
				return 0, err
			}
			switch b {
			case '-':
				err = c.comment()
			case '[':
				for i := 0; i < 6 && err == nil; i++ {
					if b, err = c.mustGet(); err == nil && b != "CDATA["[i] {
						err = c.syntaxError("invalid <![ sequence")
					}
				}
				if err != nil {
					return 0, err
				}
				text, err := c.chars(0, true)
				if err != nil {
					return 0, err
				}
				c.text = text
				return CharData, nil
			default:
				err = c.directive()
			}
		default:
			c.pos--
			return c.startTag()
		}
		if err != nil {
			return 0, err
		}
	}
}

// mustGet reads one byte; the end of the input is an error.
func (c *Cursor) mustGet() (byte, error) {
	if c.pos >= len(c.data) {
		return 0, errEOF
	}
	b := c.data[c.pos]
	c.pos++
	return b, nil
}

// space skips XML white space.
func (c *Cursor) space() {
	for c.pos < len(c.data) {
		switch c.data[c.pos] {
		case ' ', '\r', '\n', '\t':
			c.pos++
		default:
			return
		}
	}
}

// startTag reads a start tag from its name on.
func (c *Cursor) startTag() (Kind, error) {
	name, local, err := c.nsname()
	if err != nil {
		return 0, err
	}
	if name == nil {
		return 0, c.syntaxError("expected element name after <")
	}
	c.attrs = c.attrs[:0]
	for {
		c.space()
		b, err := c.mustGet()
		if err != nil {
			return 0, err
		}
		if b == '/' {
			if b, err = c.mustGet(); err != nil {
				return 0, err
			}
			if b != '>' {
				return 0, c.syntaxError("expected /> in element")
			}
			c.closeNext = true
			break
		}
		if b == '>' {
			break
		}
		c.pos--
		_, alocal, err := c.nsname()
		if err != nil {
			return 0, err
		}
		if alocal == nil {
			return 0, c.syntaxError("expected attribute name in element")
		}
		c.space()
		if b, err = c.mustGet(); err != nil {
			return 0, err
		}
		if b != '=' {
			return 0, c.syntaxError("attribute name without = in element")
		}
		c.space()
		if b, err = c.mustGet(); err != nil {
			return 0, err
		}
		if b != '"' && b != '\'' {
			return 0, c.syntaxError("unquoted or missing attribute value in element")
		}
		value, err := c.chars(b, false)
		if err != nil {
			return 0, err
		}
		if c.decoded {
			value = bytes.Clone(value) // the next value reuses the scratch
		}
		c.attrs = append(c.attrs, Attr{Local: alocal, Value: value})
	}
	c.open = append(c.open, name)
	c.local = local
	return StartElement, nil
}

// endTag reads an end tag from its name on and checks it closes the
// innermost open element.
func (c *Cursor) endTag() (Kind, error) {
	if n := len(c.open); n > 0 {
		// The common case: the open element's name, already checked,
		// followed by a byte no name continues with.
		top := c.open[n-1]
		if end := c.pos + len(top); end < len(c.data) && bytes.HasPrefix(c.data[c.pos:], top) &&
			c.data[end] < utf8.RuneSelf && !isNameByte[c.data[end]] {
			c.pos = end
			c.space()
			if c.pos < len(c.data) && c.data[c.pos] == '>' {
				c.pos++
				c.open = c.open[:n-1]
				c.local = localPart(top)
				return EndElement, nil
			}
			c.pos = end - len(top)
		}
	}
	name, local, err := c.nsname()
	if err != nil {
		return 0, err
	}
	if name == nil {
		return 0, c.syntaxError("expected element name after </")
	}
	c.space()
	b, err := c.mustGet()
	if err != nil {
		return 0, err
	}
	if b != '>' {
		return 0, c.syntaxError("invalid characters between </" + string(local) + " and >")
	}
	if len(c.open) == 0 {
		return 0, c.syntaxError("unexpected end element </" + string(local) + ">")
	}
	// Equal raw names are equal (prefix, local) pairs and back.
	if top := c.open[len(c.open)-1]; !bytes.Equal(top, name) {
		return 0, c.syntaxError("element <" + string(top) + "> closed by </" + string(name) + ">")
	}
	c.open = c.open[:len(c.open)-1]
	c.local = local
	return EndElement, nil
}

// procInst passes over a processing instruction, after "<?". Its
// target must be a name; an XML declaration must declare version 1.0
// (or none) and UTF-8 (or no encoding).
func (c *Cursor) procInst() error {
	target, err := c.name()
	if err != nil {
		return err
	}
	if target == nil {
		return c.syntaxError("expected target name after <?")
	}
	c.space()
	end := bytes.Index(c.data[c.pos:], []byte("?>"))
	if end < 0 {
		c.pos = len(c.data)
		return errEOF
	}
	content := string(c.data[c.pos : c.pos+end])
	c.pos += end + 2
	if string(target) != "xml" {
		return nil
	}
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xml: encoding %q declared but only UTF-8 is read", enc)
	}
	return nil
}

// procInstParam returns the value of param="..." or param='...' in the
// content of an XML declaration, or "" if there is none: the first
// occurrence of param= followed by a quote, up to the next such quote,
// which is how the decoder reads it.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if q := sub[len(param)+k]; q == '\'' || q == '"' {
			sep = q
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// comment passes over a comment, after "<!-": it must open with "<!--"
// and end at the first "--", which must be followed by '>'.
func (c *Cursor) comment() error {
	b, err := c.mustGet()
	if err != nil {
		return err
	}
	if b != '-' {
		return c.syntaxError("invalid sequence <!- not part of <!--")
	}
	k := bytes.Index(c.data[c.pos:], []byte("--"))
	if k < 0 || c.pos+k+2 >= len(c.data) {
		c.pos = len(c.data)
		return errEOF
	}
	c.pos += k + 2
	if c.data[c.pos] != '>' {
		return c.syntaxError(`invalid sequence "--" not allowed in comments`)
	}
	c.pos++
	return nil
}

// directive passes over a directive such as <!DOCTYPE ...>, whose
// first byte after "<!" has been read: it ends at the first '>' outside
// quotes that closes no inner '<', and comments inside it are skipped.
func (c *Cursor) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := c.mustGet()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < 3; i++ {
				if b, err = c.mustGet(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = c.mustGet(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// name reads an XML name, returning nil (and no error) when the next
// byte cannot begin one. As with the decoder, a name runs until a byte
// below 0x80 that is not a name byte, and is then checked whole.
func (c *Cursor) name() ([]byte, error) {
	start := c.pos
	i := start
	for i < len(c.data) && (c.data[i] >= utf8.RuneSelf || isNameByte[c.data[i]]) {
		i++
	}
	if i == len(c.data) {
		c.pos = i
		return nil, errEOF
	}
	if i == start {
		return nil, nil
	}
	c.pos = i
	s := c.data[start:i]
	if !isName(s) {
		return nil, c.syntaxError("invalid XML name: " + string(s))
	}
	return s, nil
}

// nsname reads a name and splits off its local part: the part after
// the colon of a name with one colon inside it, else the whole name. A
// name with two colons is no name.
func (c *Cursor) nsname() (name, local []byte, err error) {
	s, err := c.name()
	if s == nil || err != nil {
		return nil, nil, err
	}
	if i := bytes.IndexByte(s, ':'); i >= 0 && bytes.IndexByte(s[i+1:], ':') >= 0 {
		return nil, nil, nil
	}
	return s, localPart(s), nil
}

// localPart returns the local part of a name with at most one colon.
func localPart(s []byte) []byte {
	if i := bytes.IndexByte(s, ':'); i > 0 && i < len(s)-1 {
		return s[i+1:]
	}
	return s
}

// isNameByte marks the bytes below 0x80 a name may contain.
var isNameByte = func() (t [utf8.RuneSelf]bool) {
	for b := 0; b < utf8.RuneSelf; b++ {
		t[b] = 'A' <= b && b <= 'Z' || 'a' <= b && b <= 'z' || '0' <= b && b <= '9' ||
			b == '_' || b == ':' || b == '.' || b == '-'
	}
	return t
}()

// isName reports whether s is an XML name: valid UTF-8, a nameStart
// character, then nameRest characters.
func isName(s []byte) bool {
	for i := 0; i < len(s); {
		r, n := rune(s[i]), 1
		if r < utf8.RuneSelf {
			if i == 0 && !asciiNameStart[r] || !asciiNameRest[r] {
				return false
			}
			i++
			continue
		}
		if r, n = utf8.DecodeRune(s[i:]); r == utf8.RuneError && n == 1 {
			return false
		}
		if i == 0 && !unicode.Is(nameStart, r) || i > 0 && !unicode.Is(nameRest, r) {
			return false
		}
		i += n
	}
	return len(s) > 0
}

// asciiNameStart and asciiNameRest are nameStart and nameRest below
// 0x80.
var asciiNameStart, asciiNameRest = func() (start, rest [utf8.RuneSelf]bool) {
	for r := rune(0); r < utf8.RuneSelf; r++ {
		start[r], rest[r] = unicode.Is(nameStart, r), unicode.Is(nameRest, r)
	}
	return start, rest
}()

// plainText marks the bytes that stand for themselves in character
// data and attribute values: printable ASCII other than the markup
// characters, quotes and ']', plus tab and newline.
var plainText = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`<&]"'`, b)
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// chars reads character data from the cursor: text up to the next '<'
// (quote 0, cdata false), a CDATA section's content up to "]]>"
// (cdata), or an attribute value up to its closing quote (quote). The
// common run — plain bytes and well-formed characters up to its end —
// is returned as a slice of the input; anything else is decoded.
func (c *Cursor) chars(quote byte, cdata bool) ([]byte, error) {
	data := c.data
	start := c.pos
	c.decoded = false
	if !cdata {
		for i := start; i < len(data); {
			b := data[i]
			if b < utf8.RuneSelf {
				if plainText[b] {
					i++
					continue
				}
				if quote == 0 && b == '<' || quote != 0 && b == quote {
					end := i
					if quote != 0 {
						i++
					}
					c.pos = i
					return data[start:end], nil
				}
				if b == '"' || b == '\'' {
					i++
					continue
				}
				break
			}
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 || !inCharacterRange(r) {
				break
			}
			i += n
		}
	}
	c.decoded = true
	return c.decodeChars(quote, cdata)
}

// decodeChars is chars in full, as the decoder reads character data:
// references replaced, "\r\n" and lone '\r' turned into '\n', "]]>"
// refused outside a CDATA section and '<' inside a quoted value, and
// the result checked for UTF-8 and the XML character range. Text runs
// to the end of the input; a value or a CDATA section must close.
func (c *Cursor) decodeChars(quote byte, cdata bool) ([]byte, error) {
	data := c.data
	out := c.buf[:0]
	defer func() { c.buf = out }()
	var b0, b1 byte
	trunc := 0
	i := c.pos
loop:
	for {
		if i >= len(data) {
			c.pos = i
			if cdata {
				return nil, errors.New("XML syntax error: unexpected EOF in CDATA section")
			}
			if quote != 0 {
				return nil, errEOF
			}
			break
		}
		b := data[i]
		i++
		if quote == 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				trunc = 2
				break
			}
			c.pos = i
			return nil, c.syntaxError("unescaped ]]> not in CDATA section")
		}
		if b == '<' && !cdata {
			if quote != 0 {
				c.pos = i
				return nil, c.syntaxError("unescaped < inside quoted string")
			}
			i--
			break
		}
		if quote != 0 && b == quote {
			break
		}
		if b == '&' && !cdata {
			c.pos = i
			r, err := c.reference()
			if err != nil {
				return nil, err
			}
			i = c.pos
			out = utf8.AppendRune(out, r)
			b0, b1 = 0, 0
			continue loop
		}
		switch {
		case b == '\r':
			out = append(out, '\n')
		case b1 == '\r' && b == '\n':
		default:
			out = append(out, b)
		}
		b0, b1 = b1, b
	}
	c.pos = i
	out = out[:len(out)-trunc]
	for s := out; len(s) > 0; {
		r, n := utf8.DecodeRune(s)
		if r == utf8.RuneError && n == 1 {
			return nil, c.syntaxError("invalid UTF-8")
		}
		if !inCharacterRange(r) {
			return nil, c.syntaxError(fmt.Sprintf("illegal character code %U", r))
		}
		s = s[n:]
	}
	return out, nil
}

// reference reads a character or entity reference after its '&': a
// decimal or lower-case-x hexadecimal character reference to at most
// U+10FFFF (a surrogate reads as U+FFFD, as string(rune) converts it),
// or one of the five predefined entities.
func (c *Cursor) reference() (rune, error) {
	start := c.pos
	bad := func() (rune, error) {
		return 0, c.syntaxError("invalid character entity &" + string(c.data[start:c.pos]))
	}
	b, err := c.mustGet()
	if err != nil {
		return 0, err
	}
	if b == '#' {
		if b, err = c.mustGet(); err != nil {
			return 0, err
		}
		base := 10
		if b == 'x' {
			base = 16
			if b, err = c.mustGet(); err != nil {
				return 0, err
			}
		}
		digits := c.pos - 1
		for '0' <= b && b <= '9' || base == 16 && ('a' <= b && b <= 'f' || 'A' <= b && b <= 'F') {
			if b, err = c.mustGet(); err != nil {
				return 0, err
			}
		}
		if b != ';' {
			c.pos--
			return bad()
		}
		n, err := strconv.ParseUint(string(c.data[digits:c.pos-1]), base, 64)
		if err != nil || n > unicode.MaxRune {
			return bad()
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		return r, nil
	}
	c.pos--
	name := c.pos
	for c.pos < len(c.data) && (c.data[c.pos] >= utf8.RuneSelf || isNameByte[c.data[c.pos]]) {
		c.pos++
	}
	if c.pos == len(c.data) {
		return 0, errEOF
	}
	if b, _ = c.mustGet(); b != ';' {
		c.pos--
		return bad()
	}
	switch string(c.data[name : c.pos-1]) {
	case "lt":
		return '<', nil
	case "gt":
		return '>', nil
	case "amp":
		return '&', nil
	case "apos":
		return '\'', nil
	case "quot":
		return '"', nil
	}
	return bad()
}

// Skip consumes the tokens up to and including the end tag of the
// innermost open element.
func (c *Cursor) Skip() error {
	depth := 0
	for {
		kind, err := c.Next()
		if err != nil {
			return err
		}
		switch kind {
		case StartElement:
			depth++
		case EndElement:
			if depth == 0 {
				return nil
			}
			depth--
		}
	}
}
