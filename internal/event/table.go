package event

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
)

// Table assigns probabilities to independent probabilistic events. The
// zero value is not usable; call NewTable.
type Table struct {
	probs   map[ID]float64
	counter int // monotonically increasing suffix for Fresh

	// Interner for the probability engine: every event ever Set gets a
	// dense int32 index (append-only; Delete leaves a tombstone so
	// indexes stay stable). Mutated only under Set, so the read-only
	// compile path is safe for concurrent queries.
	idx map[ID]int32
	rev []ID
}

// NewTable returns an empty event table.
func NewTable() *Table {
	return &Table{probs: make(map[ID]float64), idx: make(map[ID]int32)}
}

// Set records the probability of event e. It returns an error if p is
// outside [0, 1] or e is empty.
func (t *Table) Set(e ID, p float64) error {
	if e == "" {
		return fmt.Errorf("event: empty event name")
	}
	if p < 0 || p > 1 || p != p { // p != p rejects NaN
		return fmt.Errorf("event: probability %v of %q outside [0,1]", p, e)
	}
	t.probs[e] = p
	if _, ok := t.idx[e]; !ok {
		t.idx[e] = int32(len(t.rev))
		t.rev = append(t.rev, e)
	}
	return nil
}

// MustSet is like Set but panics on error; intended for constant inputs.
func (t *Table) MustSet(e ID, p float64) *Table {
	if err := t.Set(e, p); err != nil {
		panic(err)
	}
	return t
}

// Prob returns the probability of event e and whether it is known.
func (t *Table) Prob(e ID) (float64, bool) {
	p, ok := t.probs[e]
	return p, ok
}

// Has reports whether the table knows event e.
func (t *Table) Has(e ID) bool {
	_, ok := t.probs[e]
	return ok
}

// Delete removes event e from the table.
func (t *Table) Delete(e ID) {
	delete(t.probs, e)
}

// Len returns the number of events in the table.
func (t *Table) Len() int { return len(t.probs) }

// Events returns the sorted list of known events.
func (t *Table) Events() []ID {
	out := make([]ID, 0, len(t.probs))
	for id := range t.probs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the table. The interner is compacted to
// the live events (Delete leaves tombstones in the original so indexes
// stay stable under concurrent reads; a fresh clone has no readers, so
// reclaiming them here keeps long-lived clone chains — one per
// warehouse update — from growing without bound).
func (t *Table) Clone() *Table {
	c := &Table{probs: maps.Clone(t.probs), idx: make(map[ID]int32, len(t.probs))}
	c.rev = make([]ID, 0, len(t.probs))
	for _, id := range t.rev {
		if _, ok := t.probs[id]; ok {
			c.idx[id] = int32(len(c.rev))
			c.rev = append(c.rev, id)
		}
	}
	c.counter = t.counter
	return c
}

// Fresh allocates an event name of the form prefix+N that does not occur
// in the table, registers it with probability p, and returns it. Updates
// use it to mint one confidence event per transaction.
func (t *Table) Fresh(prefix string, p float64) (ID, error) {
	if prefix == "" {
		prefix = "u"
	}
	for {
		t.counter++
		id := ID(fmt.Sprintf("%s%d", prefix, t.counter))
		if !t.Has(id) {
			if err := t.Set(id, p); err != nil {
				return "", err
			}
			return id, nil
		}
	}
}

// ProbCond returns the probability that the conjunction c holds: 0 for
// unsatisfiable conditions, otherwise the product over the (normalized)
// literals, using independence. Unknown events are an error.
func (t *Table) ProbCond(c Condition) (float64, error) {
	n := c.Normalize()
	if !n.Satisfiable() {
		return 0, nil
	}
	p := 1.0
	for _, l := range n {
		pe, ok := t.probs[l.Event]
		if !ok {
			return 0, fmt.Errorf("event: unknown event %q in condition %q", l.Event, c)
		}
		if l.Neg {
			p *= 1 - pe
		} else {
			p *= pe
		}
	}
	return p, nil
}

// ForEachAssignment enumerates all 2^n assignments over the given events
// together with their probabilities, invoking fn for each. If fn returns
// false the enumeration stops. Events must all be known to the table.
func (t *Table) ForEachAssignment(events []ID, fn func(a Assignment, p float64) bool) error {
	for _, e := range events {
		if !t.Has(e) {
			return fmt.Errorf("event: unknown event %q", e)
		}
	}
	a := make(Assignment, len(events))
	var rec func(i int, p float64) bool
	rec = func(i int, p float64) bool {
		if i == len(events) {
			return fn(a, p)
		}
		e := events[i]
		pe := t.probs[e]
		a[e] = true
		if !rec(i+1, p*pe) {
			return false
		}
		a[e] = false
		if !rec(i+1, p*(1-pe)) {
			return false
		}
		delete(a, e)
		return true
	}
	rec(0, 1)
	return nil
}

// SampleAssignment draws one random assignment of the given events.
func (t *Table) SampleAssignment(events []ID, r *rand.Rand) Assignment {
	a := make(Assignment, len(events))
	for _, e := range events {
		a[e] = r.Float64() < t.probs[e]
	}
	return a
}

// String renders the table deterministically, e.g. "w1=0.8 w2=0.7".
func (t *Table) String() string {
	ids := t.Events()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%s=%g", id, t.probs[id])
	}
	return strings.Join(parts, " ")
}
