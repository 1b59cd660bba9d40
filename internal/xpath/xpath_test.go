package xpath

import (
	"testing"

	"repro/internal/tpwj"
	"repro/internal/tree"
)

// compileAndFormat compiles and renders in the TPWJ syntax for easy
// comparison.
func compileAndFormat(t *testing.T, s string) string {
	t.Helper()
	q, err := Compile(s)
	if err != nil {
		t.Fatalf("Compile(%q): %v", s, err)
	}
	return tpwj.FormatQuery(q)
}

func TestCompileShapes(t *testing.T) {
	cases := []struct{ xpath, tpwj string }{
		{"/A", "A $result"},
		{"/A/B", "A(B $result)"},
		{"//B", "//B $result"},
		{"/A//C", "A(//C $result)"},
		{"/*/B", "*(B $result)"},
		{"//person[name='Alice']", "//person $result(name=Alice)"},
		{`//B[.="foo"]`, "//B=foo $result"},
		{"/A//C[D][not(E)]", "A(//C $result(D, !E))"},
		{"/A[B/C]", "A $result(B(C))"},
		{"/A[//D]", "A $result(//D)"},
		{"/A[not(//D='x')]", "A $result(!//D=x)"},
		{"/A/B[C]/D", "A(B(C, D $result))"},
	}
	for _, tc := range cases {
		if got := compileAndFormat(t, tc.xpath); got != tc.tpwj {
			t.Errorf("Compile(%q) = %q, want %q", tc.xpath, got, tc.tpwj)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"",
		"A",       // missing leading axis
		"/",       // missing step
		"/A[",     // unterminated predicate
		"/A[B",    // missing ]
		"/A[.]",   // dot without comparison
		"/A[.=x]", // unquoted literal
		"/A[.='x]",
		"/A[not(B]",
		"/A[/B]", // absolute path in predicate
		"/A/",
		"/A extra",
		"/A[not(not(B))]", // nested negation (rejected by validation)
	}
	for _, s := range cases {
		if _, err := Compile(s); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", s)
		}
	}
}

func TestCompiledQueriesEvaluate(t *testing.T) {
	doc := tree.MustParse("library(book(title:TheTrial, author:Kafka), book(title:Ulysses, author:Joyce), journal(title:TODS))")
	cases := []struct {
		xpath string
		want  int
	}{
		{"/library/book", 2},
		{"//title", 3},
		{"/library/book[author='Kafka']", 1},
		{"/library/book[author='Kafka']/title", 1},
		{"//book[not(author='Kafka')]", 1},
		{"/library/*[title]", 3},
		{"//*[.='Joyce']", 1},
		{"/library/book[title][author]", 2},
	}
	for _, tc := range cases {
		q, err := Compile(tc.xpath)
		if err != nil {
			t.Errorf("Compile(%q): %v", tc.xpath, err)
			continue
		}
		n, err := tpwj.CountMatches(q, doc)
		if err != nil {
			t.Errorf("eval %q: %v", tc.xpath, err)
			continue
		}
		if n != tc.want {
			t.Errorf("%q matched %d, want %d", tc.xpath, n, tc.want)
		}
	}
}

func TestResultVariableBinding(t *testing.T) {
	q := MustCompile("/library/book/title")
	d := tpwj.Flatten(tree.MustParse("library(book(title:Ulysses))"))
	pos, ok := q.VarPositions()[ResultVar]
	if !ok {
		t.Fatalf("compiled query binds no %s", ResultVar)
	}
	var values []string
	err := d.Valuations(q, func(bound []int32) bool {
		values = append(values, d.Value(bound[pos]))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 1 || values[0] != "Ulysses" {
		t.Errorf("result bindings = %q, want [Ulysses]", values)
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile of bad input did not panic")
		}
	}()
	MustCompile("not a path")
}
