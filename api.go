package fuzzyxml

import (
	"io"
	"math/rand"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/infer"
	"repro/internal/keyword"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tpwj"
	"repro/internal/tree"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/view"
	"repro/internal/warehouse"
	"repro/internal/worlds"
	"repro/internal/xmlio"
	"repro/internal/xpath"
	"repro/internal/xupdate"
)

// Core model types, re-exported from the internal packages. The aliases
// are transparent: values flow freely between the facade and the
// internal APIs.
type (
	// Tree is an unordered data tree node (bag semantics for children,
	// no mixed content).
	Tree = tree.Node
	// EventID identifies a probabilistic event.
	EventID = event.ID
	// Literal is an event or its negation.
	Literal = event.Literal
	// Condition is a conjunction of event literals.
	Condition = event.Condition
	// DNF is a disjunction of conditions, as carried by query answers.
	DNF = event.DNF
	// Formula is an arbitrary Boolean formula over events, as carried by
	// answers of queries with negation.
	Formula = event.Formula
	// EventTable assigns probabilities to independent events.
	EventTable = event.Table
	// Assignment maps events to truth values (one possible world of the
	// event space).
	Assignment = event.Assignment
	// FuzzyNode is a conditioned tree node.
	FuzzyNode = fuzzy.Node
	// FuzzyTree is a fuzzy tree: conditioned nodes plus an event table.
	// This is the paper's probabilistic document representation.
	FuzzyTree = fuzzy.Tree
	// SimplifyStats reports what FuzzyTree.Simplify changed.
	SimplifyStats = fuzzy.SimplifyStats
	// Worlds is a possible-worlds set: pairs of (tree, probability).
	Worlds = worlds.Set
	// World is one possible world.
	World = worlds.World
	// Query is a tree-pattern-with-join query.
	Query = tpwj.Query
	// PatternNode is one node of a query pattern.
	PatternNode = tpwj.PNode
	// ProbAnswer is a query answer over a fuzzy tree: answer tree,
	// condition DNF and exact probability.
	ProbAnswer = tpwj.ProbAnswer
	// ResultMode selects answer materialization (MinimalSubtree or
	// WithSubtrees).
	ResultMode = tpwj.ResultMode
	// Transaction is a probabilistic update transaction.
	Transaction = update.Transaction
	// Op is an elementary insertion or deletion.
	Op = update.Op
	// UpdateStats reports what applying a transaction to a fuzzy tree
	// did.
	UpdateStats = update.FuzzyStats
	// Warehouse is a durable store of named fuzzy documents.
	Warehouse = warehouse.Warehouse
	// WarehouseSnapshot is one immutable version of a stored document
	// (Warehouse.Snapshot), queried and searched without any lock.
	WarehouseSnapshot = warehouse.Snapshot
	// WarehouseInfo summarizes a stored document.
	WarehouseInfo = warehouse.Info
	// JournalSummary describes a warehouse journal file as found on
	// disk, without recovering it (see InspectJournal).
	JournalSummary = warehouse.JournalSummary
	// KeywordMode selects keyword-search answer semantics (SLCA or
	// ELCA).
	KeywordMode = keyword.Mode
	// KeywordRequest describes one keyword search: keywords, mode,
	// exact or Monte-Carlo probabilities, MinProb threshold, TopK cut.
	KeywordRequest = keyword.Request
	// KeywordAnswer is one keyword-search answer: a document node and
	// the probability that it is an SLCA/ELCA answer.
	KeywordAnswer = keyword.Answer
	// KeywordResult is the outcome of one keyword search.
	KeywordResult = keyword.Result
	// KeywordIndex is a per-document inverted index for keyword search.
	KeywordIndex = keyword.Index
	// ViewDefinition is the registered identity of a materialized
	// view: name, query text and syntax ("tpwj" or "xpath").
	ViewDefinition = view.Definition
	// ViewResult is one materialized-view read: the definition and the
	// incrementally maintained answers on the version the read loaded
	// (its Stale field is always false).
	ViewResult = warehouse.ViewResult
	// StorageStats reports a warehouse's storage backend and on-disk
	// footprint (Warehouse.StorageStats, the /stats storage section).
	StorageStats = store.Stats
	// Server is an http.Handler exposing a warehouse over an HTTP/JSON
	// API with per-document concurrency.
	Server = server.Server
	// ServerOptions configures NewServer (body limit, request logging,
	// slow-query threshold, trace-ring size, timeout, in-flight cap).
	ServerOptions = server.Options
	// ServerStats is the GET /stats response: degraded state, the
	// storage footprint, and every metric series of GET /metrics as
	// JSON (Warehouse.Registry holds the warehouse's share of them).
	ServerStats = server.StatsSnapshot
)

// Warehouse error categories, for mapping failures to responses; test
// with errors.Is.
var (
	// ErrDocNotFound reports an operation on a missing document.
	ErrDocNotFound = warehouse.ErrNotFound
	// ErrDocExists reports creating a document name already in use.
	ErrDocExists = warehouse.ErrExists
	// ErrInvalidDocName reports a document name outside [A-Za-z0-9_-].
	ErrInvalidDocName = warehouse.ErrInvalidName
	// ErrWarehouseClosed reports use of a warehouse after Close.
	ErrWarehouseClosed = warehouse.ErrClosed
	// ErrWarehouseDegraded reports a write rejected because the
	// warehouse is in degraded read-only mode after an unrecoverable
	// storage error; reads keep serving and Warehouse.Reopen recovers.
	// The server maps it to 503 with a Retry-After header. See
	// docs/FAULTS.md.
	ErrWarehouseDegraded = warehouse.ErrDegraded
	// ErrViewNotFound reports an operation on a missing materialized
	// view.
	ErrViewNotFound = warehouse.ErrViewNotFound
	// ErrViewExists reports registering a view name already in use on
	// its document.
	ErrViewExists = warehouse.ErrViewExists
	// ErrInvalidView reports a view definition that does not compile.
	ErrInvalidView = warehouse.ErrInvalidView
)

// NewServer builds an HTTP handler serving the warehouse: document
// CRUD, TPWJ/XPath queries (exact or Monte-Carlo), probabilistic
// updates, simplification and admin routes. See repro/internal/server
// for the route list.
func NewServer(w *Warehouse, opts ServerOptions) *Server { return server.New(w, opts) }

// Answer materialization modes.
const (
	// MinimalSubtree answers are the union of root-to-matched-node
	// paths (the paper's definition).
	MinimalSubtree = tpwj.MinimalSubtree
	// WithSubtrees answers additionally keep full subtrees below nodes
	// matched by pattern leaves.
	WithSubtrees = tpwj.WithSubtrees
)

// Keyword-search answer semantics.
const (
	// SLCA answers are smallest lowest common ancestors of the
	// keywords.
	SLCA = keyword.SLCA
	// ELCA answers are exclusive lowest common ancestors.
	ELCA = keyword.ELCA
)

// NewKeywordIndex builds the inverted keyword index of one document
// snapshot, reusable across searches until the document changes.
func NewKeywordIndex(doc *FuzzyTree) *KeywordIndex { return keyword.NewIndex(doc) }

// SearchKeywords runs one keyword search (SLCA or ELCA semantics with
// exact or Monte-Carlo probabilities) on a document, building a
// throwaway index. Use NewKeywordIndex + SearchIndexed to amortize the
// index over repeated searches, or Warehouse.Search for stored
// documents (the warehouse caches indexes per document).
func SearchKeywords(doc *FuzzyTree, req KeywordRequest) (*KeywordResult, error) {
	return keyword.Search(keyword.NewIndex(doc), req)
}

// SearchIndexed runs one keyword search against a prebuilt index.
func SearchIndexed(ix *KeywordIndex, req KeywordRequest) (*KeywordResult, error) {
	return keyword.Search(ix, req)
}

// ParseSearchMode parses "slca" or "elca" (empty defaults to SLCA).
func ParseSearchMode(s string) (KeywordMode, error) { return keyword.ParseMode(s) }

// NewEventTable returns an empty event table.
func NewEventTable() *EventTable { return event.NewTable() }

// NewFuzzyTree pairs a conditioned root with an event table.
func NewFuzzyTree(root *FuzzyNode, table *EventTable) *FuzzyTree {
	return &fuzzy.Tree{Root: root, Table: table}
}

// NewTransaction builds an update transaction over q with confidence
// conf.
func NewTransaction(q *Query, conf float64, ops ...Op) *Transaction {
	return update.New(q, conf, ops...)
}

// InsertOp builds an insertion of subtree under the node bound to
// varName.
func InsertOp(varName string, subtree *Tree) Op { return update.Insert(varName, subtree) }

// DeleteOp builds a deletion of the subtree rooted at the node bound to
// varName.
func DeleteOp(varName string) Op { return update.Delete(varName) }

// EvalQuery evaluates a TPWJ query directly on a fuzzy tree, returning
// distinct answers with exact probabilities (descending).
func EvalQuery(q *Query, doc *FuzzyTree) ([]ProbAnswer, error) {
	return tpwj.EvalFuzzy(q, doc)
}

// EvalQueryMC is EvalQuery with Monte-Carlo probability estimation.
func EvalQueryMC(q *Query, doc *FuzzyTree, samples int, r *rand.Rand) ([]ProbAnswer, error) {
	return tpwj.EvalFuzzyMonteCarlo(q, doc, samples, r)
}

// EvalQueryOnTree evaluates a query on a plain data tree.
func EvalQueryOnTree(q *Query, doc *Tree, mode ResultMode) ([]*Tree, error) {
	return tpwj.Eval(q, doc, mode)
}

// EvalQueryOnWorlds evaluates a query world by world — the paper's
// semantic definition and the exponential baseline.
func EvalQueryOnWorlds(q *Query, s *Worlds, mode ResultMode) (*Worlds, error) {
	return tpwj.EvalWorlds(q, s, mode)
}

// ApplyUpdate applies a transaction directly to a fuzzy tree, returning
// the new tree (the input is unchanged).
func ApplyUpdate(tx *Transaction, doc *FuzzyTree) (*FuzzyTree, *UpdateStats, error) {
	return tx.ApplyFuzzy(doc)
}

// ApplyUpdateToWorlds applies a transaction world by world — the paper's
// semantic definition and the exponential baseline.
func ApplyUpdateToWorlds(tx *Transaction, s *Worlds) (*Worlds, error) {
	return tx.ApplyWorlds(s)
}

// PossibleWorlds expands a fuzzy tree into its possible-worlds semantics
// (exact; refuses more than fuzzy.MaxExactEvents events — use
// SampleWorlds beyond that).
func PossibleWorlds(doc *FuzzyTree) (*Worlds, error) {
	return doc.Expand()
}

// SampleWorlds estimates the possible-worlds distribution of a fuzzy
// tree from n random worlds.
func SampleWorlds(doc *FuzzyTree, n int, r *rand.Rand) (*Worlds, error) {
	return doc.SampleSet(n, r)
}

// FromWorlds encodes a possible-worlds distribution as a fuzzy tree (the
// expressiveness theorem). All worlds must share their root label and
// value.
func FromWorlds(s *Worlds, eventPrefix string) (*FuzzyTree, error) {
	return fuzzy.FromWorlds(s, eventPrefix)
}

// Simplify runs all semantics-preserving simplification passes on the
// document, in place, and reports what changed.
func Simplify(doc *FuzzyTree) SimplifyStats { return doc.Simplify() }

// Storage backend names, accepted by OpenWarehouseBackend and the
// -store flag of pxserve and pxwarehouse. See docs/STORAGE.md for the
// on-disk formats and the contract a backend implements.
const (
	// StoreFile is the file-per-document layout: docs/<name>.pxml
	// files, a newline-delimited journal.log, and a views.json
	// snapshot.
	StoreFile = warehouse.BackendFile
	// StoreKV is the embedded single-file page store: every journal
	// record, document and view snapshot is a CRC-framed record in one
	// append-only kv.store file.
	StoreKV = warehouse.BackendKV
	// StoreAuto detects the backend from the directory layout (kv.store
	// present → StoreKV) and defaults to StoreFile for fresh
	// directories.
	StoreAuto = warehouse.BackendAuto
)

// OpenWarehouse opens (creating if necessary) a warehouse directory and
// runs recovery: each document is brought to the state of its last
// journal record. The file-per-document backend is used;
// OpenWarehouseBackend selects others.
func OpenWarehouse(dir string) (*Warehouse, error) { return warehouse.Open(dir) }

// OpenWarehouseBackend is OpenWarehouse with an explicit storage
// backend (StoreFile, StoreKV, or StoreAuto to detect from the
// directory).
func OpenWarehouseBackend(dir, backend string) (*Warehouse, error) {
	return warehouse.OpenBackend(dir, backend, vfs.OS)
}

// InspectJournal summarizes a warehouse directory's journal — record,
// mutation and legacy abort counts, a torn tail, structural problems —
// without opening the warehouse or running recovery (the
// pxwarehouse verify-journal subcommand). The storage backend is
// detected from the directory layout.
func InspectJournal(dir string) (JournalSummary, error) { return warehouse.InspectJournal(dir) }

// --- parsing and formatting ------------------------------------------------

// ParseTree parses the compact text format for data trees:
// "A(B:foo, C(D:bar))".
func ParseTree(s string) (*Tree, error) { return tree.Parse(s) }

// MustParseTree is ParseTree panicking on error, for constant inputs.
func MustParseTree(s string) *Tree { return tree.MustParse(s) }

// FormatTree renders a data tree in the compact text format.
func FormatTree(n *Tree) string { return tree.Format(n) }

// ParseFuzzy parses the fuzzy text format "A(B[w1 !w2]:foo, C(D[w2]))"
// together with its event probabilities, validating the result.
func ParseFuzzy(s string, probs map[EventID]float64) (*FuzzyTree, error) {
	return fuzzy.ParseTree(s, probs)
}

// MustParseFuzzy is ParseFuzzy panicking on error, for constant inputs.
func MustParseFuzzy(s string, probs map[EventID]float64) *FuzzyTree {
	return fuzzy.MustParseTree(s, probs)
}

// FormatFuzzy renders a fuzzy node hierarchy in the fuzzy text format.
func FormatFuzzy(n *FuzzyNode) string { return fuzzy.Format(n) }

// ParseQuery parses the TPWJ query syntax:
// "A(B $x, C(//D=val $y)) where $x = $y".
func ParseQuery(s string) (*Query, error) { return tpwj.ParseQuery(s) }

// MustParseQuery is ParseQuery panicking on error, for constant inputs.
func MustParseQuery(s string) *Query { return tpwj.MustParseQuery(s) }

// FormatQuery renders a query in the textual syntax.
func FormatQuery(q *Query) string { return tpwj.FormatQuery(q) }

// ParseCondition parses the condition syntax "w1 !w2".
func ParseCondition(s string) (Condition, error) { return event.ParseCondition(s) }

// CompileXPath compiles a standard XPath subset (e.g.
// "/library/book[author='Kafka']/title") into a TPWJ query whose final
// step binds the variable "result".
func CompileXPath(s string) (*Query, error) { return xpath.Compile(s) }

// OptimizeQuery returns a clone of q with sub-patterns reordered by
// selectivity against the given document (answers are unchanged; only
// matching cost improves).
func OptimizeQuery(q *Query, doc *Tree) *Query {
	return tpwj.Optimize(q, tree.NewIndex(doc))
}

// ProbSelected returns the probability that the query has at least one
// answer on the document (the paper's "document is selected by Q").
func ProbSelected(q *Query, doc *FuzzyTree) (float64, error) {
	return infer.ProbSelected(q, doc)
}

// Posterior returns, for every event of the document, its posterior
// probability given that the query matched (Bayesian conditioning on
// query evidence).
func Posterior(q *Query, doc *FuzzyTree) (map[EventID]float64, error) {
	return infer.Posterior(q, doc)
}

// Correlation quantifies the dependence of two queries on the document;
// see infer.Correlation.
func Correlation(q1, q2 *Query, doc *FuzzyTree) (both, p1, p2, lift float64, err error) {
	return infer.Correlation(q1, q2, doc)
}

// DocumentEntropy returns the Shannon entropy (bits) of the document's
// possible-worlds distribution.
func DocumentEntropy(doc *FuzzyTree) (float64, error) {
	return infer.DocumentEntropy(doc)
}

// ReadTreeXML parses a plain data tree from XML (attributes become child
// leaves, following the paper's model).
func ReadTreeXML(r io.Reader) (*Tree, error) { return xmlio.ReadTree(r) }

// WriteTreeXML serializes a plain data tree as indented XML.
func WriteTreeXML(w io.Writer, n *Tree) error { return xmlio.WriteTree(w, n) }

// ReadDocXML parses a fuzzy document from the <pxml> XML format.
func ReadDocXML(r io.Reader) (*FuzzyTree, error) { return xmlio.ReadDoc(r) }

// WriteDocXML serializes a fuzzy document in the <pxml> XML format.
func WriteDocXML(w io.Writer, doc *FuzzyTree) error { return xmlio.WriteDoc(w, doc) }

// ReadTransactionXML parses one XUpdate-style <transaction> document.
func ReadTransactionXML(r io.Reader) (*Transaction, error) {
	return xupdate.ReadTransaction(r)
}

// ReadTransactionsXML parses a <transactions> list.
func ReadTransactionsXML(r io.Reader) ([]*Transaction, error) {
	return xupdate.ReadTransactions(r)
}

// WriteTransactionXML serializes a transaction in the XUpdate-style
// syntax.
func WriteTransactionXML(w io.Writer, tx *Transaction) error {
	return xupdate.WriteTransaction(w, tx)
}
