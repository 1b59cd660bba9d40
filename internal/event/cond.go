package event

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Condition is a conjunction of event literals, as attached to fuzzy-tree
// nodes. The nil (or empty) condition is the always-true condition. A
// condition containing both w and !w is unsatisfiable.
//
// Canonical conditions (as produced by Normalize) are sorted by event and
// sign and contain no duplicate literals; all package operations accept
// non-canonical input.
type Condition []Literal

// Cond builds a condition from literals. It does not normalize.
func Cond(ls ...Literal) Condition { return Condition(ls) }

// Clone returns a copy of the condition.
func (c Condition) Clone() Condition {
	if c == nil {
		return nil
	}
	return append(Condition{}, c...)
}

// Normalize returns the canonical form of c: literals sorted by event then
// sign, duplicates removed. Contradictory pairs (w and !w) are preserved so
// that the result still evaluates like c; use Satisfiable to detect them.
func (c Condition) Normalize() Condition {
	if len(c) == 0 {
		return nil
	}
	out := c.Clone()
	slices.SortFunc(out, compareLiterals)
	dedup := out[:1]
	for _, l := range out[1:] {
		if l != dedup[len(dedup)-1] {
			dedup = append(dedup, l)
		}
	}
	if len(dedup) == 0 {
		return nil
	}
	return dedup
}

// Satisfiable reports whether some assignment makes c true, i.e. whether c
// contains no contradictory literal pair. Conditions are a handful of
// literals, which are compared pairwise without allocating; a long one
// is sorted first.
func (c Condition) Satisfiable() bool {
	if len(c) > 16 {
		return c.Normalize().canonicalSatisfiable()
	}
	for i, l := range c {
		for _, m := range c[:i] {
			if m.Event == l.Event && m.Neg != l.Neg {
				return false
			}
		}
	}
	return true
}

// canonicalSatisfiable is Satisfiable for a condition in canonical form,
// where a contradictory pair is adjacent.
func (c Condition) canonicalSatisfiable() bool {
	for i := 1; i < len(c); i++ {
		if c[i].Event == c[i-1].Event {
			return false
		}
	}
	return true
}

// canonicalSubset reports whether every literal of c occurs in d, both
// in canonical form.
func canonicalSubset(c, d Condition) bool {
	for _, l := range c {
		for len(d) > 0 && compareLiterals(d[0], l) < 0 {
			d = d[1:]
		}
		if len(d) == 0 || d[0] != l {
			return false
		}
		d = d[1:]
	}
	return true
}

// And returns the normalized conjunction of c and d.
func (c Condition) And(d Condition) Condition {
	merged := make(Condition, 0, len(c)+len(d))
	merged = append(merged, c...)
	merged = append(merged, d...)
	return merged.Normalize()
}

// Contains reports whether c contains the literal l.
func (c Condition) Contains(l Literal) bool {
	for _, m := range c {
		if m == l {
			return true
		}
	}
	return false
}

// Entails reports whether c logically entails d, for satisfiable c: every
// literal of d appears in c. (An unsatisfiable c entails everything; the
// caller is expected to prune unsatisfiable conditions first.)
func (c Condition) Entails(d Condition) bool {
	if !c.Satisfiable() {
		return true
	}
	for _, l := range d {
		if !c.Contains(l) {
			return false
		}
	}
	return true
}

// Minus returns the residual condition: the literals of c that do not
// appear in d, in canonical form.
func (c Condition) Minus(d Condition) Condition {
	var out Condition
	for _, l := range c.Normalize() {
		if !d.Contains(l) {
			out = append(out, l)
		}
	}
	return out
}

// Eval returns the truth value of the conjunction under the assignment.
// Events absent from the assignment are treated as false.
func (c Condition) Eval(a Assignment) bool {
	for _, l := range c {
		if !l.Eval(a) {
			return false
		}
	}
	return true
}

// Events returns the sorted distinct events mentioned by c.
func (c Condition) Events() []ID {
	set := make(map[ID]struct{}, len(c))
	for _, l := range c {
		set[l.Event] = struct{}{}
	}
	out := make([]ID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Equal reports whether c and d denote the same conjunction (compared in
// canonical form).
func (c Condition) Equal(d Condition) bool {
	cn, dn := c.Normalize(), d.Normalize()
	if len(cn) != len(dn) {
		return false
	}
	for i := range cn {
		if cn[i] != dn[i] {
			return false
		}
	}
	return true
}

// String renders the condition in the textual syntax parsed by
// ParseCondition: literals separated by single spaces, negation written
// with '!'. The always-true condition renders as the empty string.
func (c Condition) String() string {
	if len(c) == 0 {
		return ""
	}
	parts := make([]string, len(c))
	for i, l := range c {
		parts[i] = l.String()
	}
	return strings.Join(parts, " ")
}

// ParseCondition parses the textual condition syntax: event literals
// separated by whitespace and/or commas; '!', '~' or '¬' negate the
// following event name. The empty string parses to the always-true
// condition. The result is normalized.
func ParseCondition(s string) (Condition, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == ','
	})
	var c Condition
	for _, f := range fields {
		neg := false
		for {
			if r := []rune(f); len(r) > 0 && (r[0] == '!' || r[0] == '~' || r[0] == '¬') {
				neg = !neg
				f = string(r[1:])
				continue
			}
			break
		}
		if f == "" {
			return nil, fmt.Errorf("event: empty event name in condition %q", s)
		}
		if strings.ContainsAny(f, "!~¬") {
			return nil, fmt.Errorf("event: misplaced negation in literal %q", f)
		}
		l := Literal{Event: ID(f), Neg: neg}
		c = append(c, l)
	}
	return c.Normalize(), nil
}

// MustParseCondition is like ParseCondition but panics on error; intended
// for constant inputs in tests and examples.
func MustParseCondition(s string) Condition {
	c, err := ParseCondition(s)
	if err != nil {
		panic(err)
	}
	return c
}
