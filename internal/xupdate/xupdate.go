// Package xupdate implements the XML update-transaction language of the
// warehouse, in the spirit of the XUpdate syntax the paper's
// implementation used (slide 16: "updates expressed in XUpdate").
//
// A transaction document looks like:
//
//	<transaction confidence="0.9" event="w3">
//	  <where>A $a(B $b, C $c)</where>
//	  <insert into="$a"><D>value</D></insert>
//	  <delete select="$c"/>
//	</transaction>
//
// The <where> element carries the TPWJ query in the textual syntax of the
// tpwj package; <insert into="$v"> carries one XML subtree to insert as a
// child of the node bound to $v; <delete select="$v"/> deletes the
// subtree rooted at the node bound to $v. The optional event attribute
// names the confidence event minted on fuzzy application. Several
// transactions can be grouped under <transactions>.
//
// ParseTransaction and ReadTransactions read the bytes in one pass
// with xmlio's Cursor, which accepts the XML grammar the xmlio package
// documents (that of encoding/xml's decoder, which the tests keep as
// their oracle in FuzzParseTransactionMatchesDecoder). Within it:
// <transaction> takes only the confidence and event attributes; its
// children are <where> (text only, the last one counting), <insert>
// (its first child element is the inserted plain tree, and anything
// after it inside <insert> is passed over) and <delete>, whose content
// is passed over; <transactions> holds only <transaction> elements.
// White space and comments may separate them, other text may not.
// Parsing stops at the end tag of the document element.
package xupdate

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/event"
	"repro/internal/tpwj"
	"repro/internal/update"
	"repro/internal/xmlio"
)

// ReadTransaction parses one <transaction> document.
func ReadTransaction(r io.Reader) (*update.Transaction, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xupdate: %w", err)
	}
	return ParseTransaction(data)
}

// ParseTransaction parses one <transaction> from a byte slice.
func ParseTransaction(data []byte) (*update.Transaction, error) {
	c := xmlio.NewCursor(data)
	if err := nextStart(c); err != nil {
		return nil, err
	}
	if string(c.Local()) != "transaction" {
		return nil, fmt.Errorf("xupdate: expected <transaction>, found <%s>", c.Local())
	}
	return readTransaction(c)
}

// ReadTransactions parses a <transactions> document into its list of
// transactions (an empty list is allowed).
func ReadTransactions(r io.Reader) ([]*update.Transaction, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xupdate: %w", err)
	}
	c := xmlio.NewCursor(data)
	if err := nextStart(c); err != nil {
		return nil, err
	}
	if string(c.Local()) != "transactions" {
		return nil, fmt.Errorf("xupdate: expected <transactions>, found <%s>", c.Local())
	}
	var out []*update.Transaction
	for {
		kind, err := c.Next()
		if err != nil {
			return nil, fmt.Errorf("xupdate: %w", err)
		}
		switch kind {
		case xmlio.StartElement:
			if string(c.Local()) != "transaction" {
				return nil, fmt.Errorf("xupdate: unexpected <%s> in <transactions>", c.Local())
			}
			tx, err := readTransaction(c)
			if err != nil {
				return nil, err
			}
			out = append(out, tx)
		case xmlio.EndElement:
			return out, nil
		case xmlio.CharData:
			if len(bytes.TrimSpace(c.Text())) > 0 {
				return nil, errors.New("xupdate: stray text in <transactions>")
			}
		}
	}
}

// readTransaction reads the <transaction> element whose start tag the
// cursor stands on.
func readTransaction(c *xmlio.Cursor) (*update.Transaction, error) {
	tx := &update.Transaction{Conf: 1}
	for _, a := range c.Attrs() {
		switch string(a.Local) {
		case "confidence":
			conf, err := strconv.ParseFloat(string(a.Value), 64)
			if err != nil {
				return nil, fmt.Errorf("xupdate: bad confidence %q", a.Value)
			}
			tx.Conf = conf
		case "event":
			tx.ConfEvent = event.ID(a.Value)
		default:
			return nil, fmt.Errorf("xupdate: unknown attribute %q on <transaction>", a.Local)
		}
	}
	for {
		kind, err := c.Next()
		if err != nil {
			return nil, fmt.Errorf("xupdate: %w", err)
		}
		switch kind {
		case xmlio.StartElement:
			switch string(c.Local()) {
			case "where":
				text, err := elementText(c)
				if err != nil {
					return nil, err
				}
				q, err := tpwj.ParseQuery(strings.TrimSpace(text))
				if err != nil {
					return nil, fmt.Errorf("xupdate: in <where>: %w", err)
				}
				tx.Query = q
			case "insert":
				varName, err := varAttr(c, "into")
				if err != nil {
					return nil, err
				}
				subtree, err := c.Subtree()
				if err != nil {
					return nil, fmt.Errorf("xupdate: in <insert>: %w", err)
				}
				if err := c.Skip(); err != nil { // consume </insert>
					return nil, fmt.Errorf("xupdate: %w", err)
				}
				tx.Ops = append(tx.Ops, update.Insert(varName, subtree))
			case "delete":
				varName, err := varAttr(c, "select")
				if err != nil {
					return nil, err
				}
				if err := c.Skip(); err != nil {
					return nil, fmt.Errorf("xupdate: %w", err)
				}
				tx.Ops = append(tx.Ops, update.Delete(varName))
			default:
				return nil, fmt.Errorf("xupdate: unexpected <%s> in <transaction>", c.Local())
			}
		case xmlio.EndElement:
			if tx.Query == nil {
				return nil, errors.New("xupdate: <transaction> without <where>")
			}
			if err := tx.Validate(); err != nil {
				return nil, err
			}
			return tx, nil
		case xmlio.CharData:
			if len(bytes.TrimSpace(c.Text())) > 0 {
				return nil, errors.New("xupdate: stray text in <transaction>")
			}
		}
	}
}

// varAttr extracts a variable reference ("$v" or "v") from the first
// attribute of the current start tag with the given name.
func varAttr(c *xmlio.Cursor, attr string) (string, error) {
	for _, a := range c.Attrs() {
		if string(a.Local) == attr {
			return strings.TrimPrefix(string(a.Value), "$"), nil
		}
	}
	return "", fmt.Errorf("xupdate: <%s> missing %q attribute", c.Local(), attr)
}

// elementText collects the text content of the current element up to its
// end tag, rejecting child elements.
func elementText(c *xmlio.Cursor) (string, error) {
	var b []byte
	for {
		kind, err := c.Next()
		if err != nil {
			return "", fmt.Errorf("xupdate: %w", err)
		}
		switch kind {
		case xmlio.CharData:
			b = append(b, c.Text()...)
		case xmlio.EndElement:
			return string(b), nil
		case xmlio.StartElement:
			return "", fmt.Errorf("xupdate: unexpected <%s> inside text element", c.Local())
		}
	}
}

// nextStart advances to the first start tag, past white space.
func nextStart(c *xmlio.Cursor) error {
	for {
		kind, err := c.Next()
		if err != nil {
			return fmt.Errorf("xupdate: %w", err)
		}
		switch kind {
		case xmlio.StartElement:
			return nil
		case xmlio.CharData:
			if len(bytes.TrimSpace(c.Text())) > 0 {
				return errors.New("xupdate: unexpected text before element")
			}
		}
	}
}

// WriteTransaction serializes a transaction in the format accepted by
// ReadTransaction.
func WriteTransaction(w io.Writer, tx *update.Transaction) error {
	if err := tx.Validate(); err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `<transaction confidence="%s"`, strconv.FormatFloat(tx.Conf, 'g', -1, 64))
	if tx.ConfEvent != "" {
		fmt.Fprintf(&b, ` event="%s"`, tx.ConfEvent)
	}
	b.WriteString(">\n  <where>")
	if err := xml.EscapeText(&b, []byte(tpwj.FormatQuery(tx.Query))); err != nil {
		return err
	}
	b.WriteString("</where>\n")
	for _, op := range tx.Ops {
		switch op.Kind {
		case update.OpInsert:
			fmt.Fprintf(&b, `  <insert into="$%s">`, op.Var)
			sub, err := xmlio.TreeXML(op.Subtree)
			if err != nil {
				return err
			}
			b.Write(sub)
			b.WriteString("</insert>\n")
		case update.OpDelete:
			fmt.Fprintf(&b, `  <delete select="$%s"/>`+"\n", op.Var)
		}
	}
	b.WriteString("</transaction>\n")
	_, err := w.Write(b.Bytes())
	return err
}

// TransactionXML returns the XML serialization of a transaction.
func TransactionXML(tx *update.Transaction) ([]byte, error) {
	var buf bytes.Buffer
	if err := WriteTransaction(&buf, tx); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
