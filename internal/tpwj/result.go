package tpwj

// ResultMode selects how query answers are materialized.
type ResultMode int

const (
	// MinimalSubtree returns, for each valuation, the minimal subtree of
	// the document containing all matched nodes: the union of the paths
	// from the document root to each matched node. This is the answer
	// definition of the paper and the only mode supported over fuzzy
	// trees.
	MinimalSubtree ResultMode = iota
	// WithSubtrees additionally keeps the full document subtrees below
	// nodes matched by pattern leaves (pattern nodes placing no further
	// structural constraints). Only supported over plain trees and
	// possible-worlds sets.
	WithSubtrees
)
