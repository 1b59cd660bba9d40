package xupdate

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
)

// The transaction reader as it was written until the cursor replaced
// it: encoding/xml's token decoder, with the insertion content read by
// the decoder-based element reader xmlio had then. It is the oracle
// the cursor-based reader must match, accepting and refusing the same
// inputs and building the same transactions.

func decoderParseTransaction(data []byte) (*update.Transaction, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	start, err := decNextStart(dec)
	if err != nil {
		return nil, err
	}
	if start.Name.Local != "transaction" {
		return nil, fmt.Errorf("xupdate: expected <transaction>, found <%s>", start.Name.Local)
	}
	return decReadTransactionFrom(dec, start)
}

func decoderParseTransactions(data []byte) ([]*update.Transaction, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	start, err := decNextStart(dec)
	if err != nil {
		return nil, err
	}
	if start.Name.Local != "transactions" {
		return nil, fmt.Errorf("xupdate: expected <transactions>, found <%s>", start.Name.Local)
	}
	var out []*update.Transaction
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xupdate: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Local != "transaction" {
				return nil, fmt.Errorf("xupdate: unexpected <%s> in <transactions>", t.Name.Local)
			}
			tx, err := decReadTransactionFrom(dec, t)
			if err != nil {
				return nil, err
			}
			out = append(out, tx)
		case xml.EndElement:
			return out, nil
		case xml.CharData:
			if len(bytes.TrimSpace(t)) > 0 {
				return nil, errors.New("xupdate: stray text in <transactions>")
			}
		}
	}
}

func decReadTransactionFrom(dec *xml.Decoder, start xml.StartElement) (*update.Transaction, error) {
	tx := &update.Transaction{Conf: 1}
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "confidence":
			c, err := strconv.ParseFloat(a.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("xupdate: bad confidence %q", a.Value)
			}
			tx.Conf = c
		case "event":
			tx.ConfEvent = event.ID(a.Value)
		default:
			return nil, fmt.Errorf("xupdate: unknown attribute %q on <transaction>", a.Name.Local)
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xupdate: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "where":
				text, err := decElementText(dec)
				if err != nil {
					return nil, err
				}
				q, err := tpwj.ParseQuery(strings.TrimSpace(text))
				if err != nil {
					return nil, fmt.Errorf("xupdate: in <where>: %w", err)
				}
				tx.Query = q
			case "insert":
				varName, err := decVarAttr(t, "into")
				if err != nil {
					return nil, err
				}
				subtree, err := decReadSubtree(dec)
				if err != nil {
					return nil, fmt.Errorf("xupdate: in <insert>: %w", err)
				}
				if err := decSkipToEnd(dec); err != nil { // consume </insert>
					return nil, err
				}
				tx.Ops = append(tx.Ops, update.Insert(varName, subtree))
			case "delete":
				varName, err := decVarAttr(t, "select")
				if err != nil {
					return nil, err
				}
				if err := decSkipToEnd(dec); err != nil {
					return nil, err
				}
				tx.Ops = append(tx.Ops, update.Delete(varName))
			default:
				return nil, fmt.Errorf("xupdate: unexpected <%s> in <transaction>", t.Name.Local)
			}
		case xml.EndElement:
			if tx.Query == nil {
				return nil, errors.New("xupdate: <transaction> without <where>")
			}
			if err := tx.Validate(); err != nil {
				return nil, err
			}
			return tx, nil
		case xml.CharData:
			if len(bytes.TrimSpace(t)) > 0 {
				return nil, errors.New("xupdate: stray text in <transaction>")
			}
		}
	}
}

func decVarAttr(start xml.StartElement, attr string) (string, error) {
	for _, a := range start.Attr {
		if a.Name.Local == attr {
			return strings.TrimPrefix(a.Value, "$"), nil
		}
	}
	return "", fmt.Errorf("xupdate: <%s> missing %q attribute", start.Name.Local, attr)
}

func decElementText(dec *xml.Decoder) (string, error) {
	var b strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", fmt.Errorf("xupdate: %w", err)
		}
		switch t := tok.(type) {
		case xml.CharData:
			b.Write(t)
		case xml.EndElement:
			return b.String(), nil
		case xml.StartElement:
			return "", fmt.Errorf("xupdate: unexpected <%s> inside text element", t.Name.Local)
		}
	}
}

func decNextStart(dec *xml.Decoder) (xml.StartElement, error) {
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.StartElement{}, fmt.Errorf("xupdate: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return t, nil
		case xml.CharData:
			if len(bytes.TrimSpace(t)) > 0 {
				return xml.StartElement{}, errors.New("xupdate: unexpected text before element")
			}
		}
	}
}

func decSkipToEnd(dec *xml.Decoder) error {
	depth := 0
	for {
		tok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("xupdate: %w", err)
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

// decReadSubtree is xmlio.ReadSubtree as it was: the next element from
// an open decoder, read as a plain data tree.
func decReadSubtree(dec *xml.Decoder) (*tree.Node, error) {
	var start xml.StartElement
	for start.Name.Local == "" {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			start = t
		case xml.CharData:
			if len(bytes.TrimSpace(t)) > 0 {
				return nil, errors.New("xmlio: unexpected text before element")
			}
		case xml.EndElement:
			return nil, errors.New("xmlio: unexpected end element")
		}
	}
	n, err := decReadElement(dec, start, new([]byte))
	if err != nil {
		return nil, err
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

func decReadElement(dec *xml.Decoder, start xml.StartElement, text *[]byte) (*tree.Node, error) {
	n := &tree.Node{Label: start.Name.Local}
	for _, a := range start.Attr {
		if a.Name.Local == "cond" {
			return nil, fmt.Errorf("xmlio: cond attribute on <%s> in a plain tree", n.Label)
		}
		n.Children = append(n.Children, &tree.Node{Label: a.Name.Local, Value: a.Value})
	}
	mark := len(*text)
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: inside <%s>: %w", n.Label, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			child, err := decReadElement(dec, t, text)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		case xml.EndElement:
			n.Value = string(bytes.TrimSpace((*text)[mark:]))
			*text = (*text)[:mark]
			if n.Value != "" && len(n.Children) > 0 {
				return nil, fmt.Errorf("xmlio: mixed content in <%s>", n.Label)
			}
			n.Children = n.Children[:len(n.Children):len(n.Children)]
			return n, nil
		case xml.CharData:
			*text = append(*text, t...)
		}
	}
}

// sameTransactions reports whether two parses built the same
// transactions: the same confidence and event, the same query, and the
// same operations with the same subtrees, in order.
func sameTransactions(a, b []*update.Transaction) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Conf != y.Conf && !(x.Conf != x.Conf && y.Conf != y.Conf) || x.ConfEvent != y.ConfEvent ||
			!reflect.DeepEqual(x.Query, y.Query) || len(x.Ops) != len(y.Ops) {
			return false
		}
		for j := range x.Ops {
			p, q := x.Ops[j], y.Ops[j]
			if p.Kind != q.Kind || p.Var != q.Var || !reflect.DeepEqual(p.Subtree, q.Subtree) {
				return false
			}
		}
	}
	return true
}

func checkTransactionAgainstDecoder(t *testing.T, data []byte) {
	t.Helper()
	got, err := ParseTransaction(data)
	want, werr := decoderParseTransaction(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ParseTransaction(%q):\n reader error %v\n decoder error %v", data, err, werr)
	}
	if err == nil && !sameTransactions([]*update.Transaction{got}, []*update.Transaction{want}) {
		t.Fatalf("ParseTransaction(%q): reader and decoder built different transactions", data)
	}
	gotAll, err := ReadTransactions(bytes.NewReader(data))
	wantAll, werr := decoderParseTransactions(data)
	if (err == nil) != (werr == nil) {
		t.Fatalf("ReadTransactions(%q):\n reader error %v\n decoder error %v", data, err, werr)
	}
	if err == nil && !sameTransactions(gotAll, wantAll) {
		t.Fatalf("ReadTransactions(%q): reader and decoder built different transactions", data)
	}
}

// goldenTransactions are the transactions the update package's golden
// file applies (internal/update/golden_test.go); insert "" deletes.
var goldenTransactions = []struct {
	query  string
	conf   float64
	insert string
}{
	{"A(S $v(K=s3))", 1, "G(L:w1)"},
	{"A(S $v(K=s3))", 0.9, "G(L:w2)"},
	{"A(S $v(C=c1))", 0.9, "G(L:w4)"},
	{"A(S(G $v(L=w2)))", 0.8, ""},
	{"A(S(K=s6, T $v), S(K=s7, T))", 0.9, ""},
	{"A(//L=w4 $v)", 0.9, ""},
	{"A(S $v(G(L=w4)))", 0.8, ""},
	{"A(S $v(K=s8, G))", 0.9, ""},
}

// transactionSeeds returns TransactionXML of the golden transactions,
// with and without a pinned event, and the hand-written examples.
func transactionSeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{[]byte(slide15TX),
		[]byte(`<transactions>` + slide15TX + slide15TX + `</transactions>`),
		[]byte(`<?xml version="1.0"?><!-- c --><transaction><where>A $a</where><insert into="a"><B x="1"><C>&lt;v&gt;</C></B></insert></transaction>`),
		[]byte(`<transaction confidence="x"><where>A</where></transaction>`),
		[]byte(`<transaction><where>A $a</where><insert into="$a"></insert></transaction>`),
		[]byte(`<transaction><where>A $a</where><insert into="$a"><B cond="w"/></insert></transaction>`),
		[]byte(`<transaction><where>A<b/></where></transaction>`),
	}
	for i, g := range goldenTransactions {
		tx := &update.Transaction{Query: tpwj.MustParseQuery(g.query), Conf: g.conf}
		if i%2 == 1 {
			tx.ConfEvent = event.ID(fmt.Sprintf("u%d", i))
		}
		if g.insert != "" {
			tx.Ops = append(tx.Ops, update.Insert("v", tree.MustParse(g.insert)))
		} else {
			tx.Ops = append(tx.Ops, update.Delete("v"))
		}
		data, err := TransactionXML(tx)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

func TestTransactionReaderMatchesDecoder(t *testing.T) {
	for _, data := range transactionSeeds(t) {
		checkTransactionAgainstDecoder(t, data)
	}
}

// FuzzParseTransactionMatchesDecoder: on every input, ParseTransaction
// and ReadTransactions accept or refuse as the decoder oracle does and
// build the same transactions.
func FuzzParseTransactionMatchesDecoder(f *testing.F) {
	for _, data := range transactionSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTransactionAgainstDecoder(t, data)
	})
}
