// Package update implements the probabilistic update transactions of
// Abiteboul and Senellart (EDBT 2006): a TPWJ query locating the
// operations, a set of elementary insertions and deletions of subtrees
// addressed through the query's variables, and a confidence.
//
// Semantics (slide 10). On a possible-worlds set, a transaction with
// confidence c leaves unselected worlds unchanged and splits every
// selected world (t, p) into (τ(t), p·c) and (t, p·(1−c)), where τ
// applies the instantiated operations. A transaction applies its
// operations once per valuation of the query: first all insertions, then
// all deletions, all computed against the pre-transaction tree.
//
// On fuzzy trees (slides 14–15), the same transaction is applied directly
// to the conditioned tree: one fresh confidence event w (P(w) = c) is
// minted per transaction; an insertion for a valuation with match
// condition γ attaches the new subtree conditioned on γ ∧ w; a deletion
// of node v rewrites v into a sequence of conditioned copies implementing
// v ∧ ¬(γ ∧ w), which may grow the tree exponentially under complex
// dependencies — the blow-up the paper warns about.
package update

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/event"
	"repro/internal/tpwj"
	"repro/internal/tree"
)

// OpKind distinguishes the elementary operations.
type OpKind int

const (
	// OpInsert inserts a copy of a subtree as a new child of the target.
	OpInsert OpKind = iota
	// OpDelete deletes the subtree rooted at the target.
	OpDelete
)

// String returns "insert" or "delete".
func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one elementary operation of a transaction, addressed through a
// variable of the transaction's query.
type Op struct {
	Kind OpKind
	// Var names the query variable whose matched node the operation
	// targets (insertion parent or deletion root).
	Var string
	// Subtree is the content to insert (OpInsert only). It is cloned on
	// every application.
	Subtree *tree.Node
}

// Insert builds an insertion operation.
func Insert(varName string, subtree *tree.Node) Op {
	return Op{Kind: OpInsert, Var: varName, Subtree: subtree}
}

// Delete builds a deletion operation.
func Delete(varName string) Op {
	return Op{Kind: OpDelete, Var: varName}
}

// Transaction is a probabilistic update transaction.
type Transaction struct {
	// Query locates the operations; its variables name the targets.
	Query *tpwj.Query
	// Ops are the elementary operations, applied once per valuation
	// (insertions before deletions).
	Ops []Op
	// Conf is the confidence c ∈ [0, 1] that the transaction reflects
	// reality. Conf 1 is a certain update; Conf 0 is a no-op.
	Conf float64
	// ConfEvent optionally names the confidence event minted by
	// ApplyFuzzy (e.g. "w3" to mirror slide 15). When empty, a fresh
	// "uN" name is generated. Ignored when Conf is 1.
	ConfEvent event.ID
}

// New returns a transaction over the given query with confidence conf.
func New(q *tpwj.Query, conf float64, ops ...Op) *Transaction {
	return &Transaction{Query: q, Ops: ops, Conf: conf}
}

// Validate checks that the transaction is well formed: a valid query,
// confidence within [0, 1], at least one operation, operations targeting
// bound variables, and valid insertion subtrees.
func (tx *Transaction) Validate() error {
	if tx == nil {
		return errors.New("update: nil transaction")
	}
	if err := tx.Query.Validate(); err != nil {
		return err
	}
	if tx.Query.HasNegation() {
		// A negated match condition is not a conjunction, so it cannot
		// be attached to fuzzy-tree nodes; the update language is the
		// paper's positive TPWJ core.
		return errors.New("update: transaction queries cannot use negation")
	}
	if tx.Query.Ordered {
		return errors.New("update: transaction queries cannot be ordered (the model is unordered)")
	}
	if tx.Conf < 0 || tx.Conf > 1 || math.IsNaN(tx.Conf) {
		return fmt.Errorf("update: confidence %v outside [0,1]", tx.Conf)
	}
	if len(tx.Ops) == 0 {
		return errors.New("update: transaction with no operations")
	}
	vars := tx.Query.Vars()
	for i, op := range tx.Ops {
		if _, ok := vars[op.Var]; !ok {
			return fmt.Errorf("update: op %d targets unbound variable $%s", i, op.Var)
		}
		switch op.Kind {
		case OpInsert:
			if op.Subtree == nil {
				return fmt.Errorf("update: op %d: insert without subtree", i)
			}
			if err := op.Subtree.Validate(); err != nil {
				return fmt.Errorf("update: op %d: %w", i, err)
			}
		case OpDelete:
			if op.Subtree != nil {
				return fmt.Errorf("update: op %d: delete with subtree", i)
			}
		default:
			return fmt.Errorf("update: op %d: unknown kind %d", i, int(op.Kind))
		}
	}
	return nil
}

// targetPositions returns, per operation, the index of its target in a
// flat valuation of the transaction's query (tpwj.Doc.Valuations).
func (tx *Transaction) targetPositions() []int {
	pos := tx.Query.VarPositions()
	out := make([]int, len(tx.Ops))
	for i, op := range tx.Ops {
		out[i] = pos[op.Var]
	}
	return out
}

// String renders the transaction for logs and debugging.
func (tx *Transaction) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "update conf=%g where %s:", tx.Conf, tpwj.FormatQuery(tx.Query))
	for _, op := range tx.Ops {
		switch op.Kind {
		case OpInsert:
			fmt.Fprintf(&b, " insert %s into $%s;", tree.Format(op.Subtree), op.Var)
		case OpDelete:
			fmt.Fprintf(&b, " delete $%s;", op.Var)
		}
	}
	return b.String()
}
