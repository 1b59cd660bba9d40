// Package fuzzyxml is a Go implementation of the probabilistic XML
// warehouse of Abiteboul and Senellart, "Querying and Updating
// Probabilistic Information in XML" (EDBT 2006).
//
// # The model
//
// Imprecise data — information extraction, NLP, data cleaning, schema
// matching — comes with confidence values. fuzzyxml stores such data as
// fuzzy trees: a single unordered data tree whose nodes carry conditions
// (conjunctions of probabilistic event literals w, !w) plus a table of
// independent event probabilities. The semantics of a fuzzy tree is a
// possible-worlds set: one (tree, probability) pair per truth assignment
// of the events, with a node surviving in a world exactly when its
// condition and all its ancestors' conditions hold.
//
// Fuzzy trees are as expressive as possible-worlds sets (FromWorlds /
// PossibleWorlds), and both querying and updating commute with the
// semantics: evaluating a query or applying an update directly on the
// fuzzy tree gives the same result as doing it world by world — in
// polynomial instead of exponential data complexity.
//
// # Queries
//
// Queries are tree patterns with joins (TPWJ, a standard subset of
// XQuery): label tests (with * wildcard), value-equality tests,
// child/descendant edges, and value joins between variables. The answer
// for a valuation is the minimal subtree containing all matched nodes.
// The textual syntax is
//
//	A(B $x, C(//D=val $y)) where $x = $y
//
// Over a fuzzy tree, every distinct answer additionally carries the DNF
// of the conditions of the valuations producing it and its exact
// probability (computed by memoized Shannon expansion; Monte-Carlo
// estimation is available for heavy condition structures).
//
// Every evaluator — over fuzzy trees, plain trees and worlds, and the
// update engine locating its targets — runs one matcher over one flat
// form of the document, built by a single walk per call and dropped on
// return: nodes numbered in preorder, label (interned), parent and
// subtree end as integer columns, so children are end-to-end hops,
// descendants an id range, and a label test an integer comparison.
// Nothing copies or pointer-indexes a document to query it.
//
// # Probability engine
//
// Every exact answer probability ends in one computation: P(c₁ ∨ … ∨ c_k)
// for a DNF of event conjunctions (#P-hard in general). The engine
// compiles each DNF before evaluating it: event IDs are interned
// per-table to dense integer indexes, clauses become canonically sorted
// integer-literal slices (deduplicated, contradictions dropped,
// absorbed clauses removed), and — whenever the DNF touches at most 64
// distinct events, which covers practically every query answer — each
// clause is also kept as a positive and a negative mask word, on which
// the whole evaluation then runs (cofactoring, absorption, connectivity
// and pivot choice as word operations; above 64 events the same
// algorithm runs on the literal slices). Scratch memory is per call:
// nothing outlives an evaluation. Evaluation
// is memoized Shannon expansion over that form: sub-DNFs are keyed by
// structural 64-bit hash (verified against the stored key, so a
// collision can only cost a recomputation, never correctness),
// cofactors maintain canonical form incrementally instead of
// re-normalizing, and clauses that share no events are split into
// independent components whose probabilities combine as 1-∏(1-pᵢ) —
// collapsing the exponential blow-up for answers whose valuations touch
// disjoint event sets. Monte-Carlo estimation samples the same compiled
// form: on the bitset path a possible world is one uint64 and a clause
// check two word operations. The engine's counters (compiles, memo
// hits/misses, components) are the px_engine_* series of the server's
// /stats and /metrics routes.
//
// # Keyword search
//
// Clients without schema knowledge search documents by keywords:
// SearchKeywords (and Warehouse.Search, POST /docs/{name}/search on
// the server) returns document nodes with the exact probability that
// each is an SLCA (smallest lowest common ancestor of the keywords) or
// ELCA (exclusive LCA) answer in a random possible world. Evaluation
// runs on a per-document inverted index (token → postings in document
// order with path conditions; NewKeywordIndex, built once per document
// version and held by the warehouse's snapshot of it): candidates come from a stack-based
// document-order merge of the posting lists, and each candidate's
// probability is computed from the witness path conditions — the DNF of
// match-witness conjunctions, sharpened with negation for SLCA/ELCA
// semantics — by the probability engine, or estimated by Monte-Carlo
// world sampling. A MinProb threshold prunes candidates early with a
// monotone upper bound (provably without changing the answer set) and
// TopK cuts the ranking. See docs/SEARCH.md.
//
// # Materialized views
//
// A query that clients re-run after every write can be registered as
// a materialized view (Warehouse.RegisterView, PUT
// /docs/{name}/views/{view} on the server, the pxview tool): the
// warehouse keeps its answer set and per-answer probabilities
// incrementally maintained across updates instead of invalidating
// them. Each update's structural footprint (inserted labels, deletion
// target paths) is tested against the view's match witnesses: provably
// unrelated updates cost nothing; affected views re-run only the cheap
// symbolic pass and recompute probabilities only for answers whose
// condition actually changed; negation/ordered queries and tree-wide
// rewrites (simplify) fall back to full recomputation. Registrations
// are journaled and survive crash recovery. ReadView never blocks on a
// writer — during an in-flight maintenance pass it returns the
// previous complete answer set marked stale. See
// docs/ARCHITECTURE.md for the data flow and consistency model.
//
// # Updates
//
// Updates are transactions: a TPWJ query locating the operations,
// elementary insertions/deletions addressed through the query's
// variables, and a confidence c. Directly on a fuzzy tree, one fresh
// event w with P(w)=c is minted per transaction; insertions attach
// subtrees conditioned on (match condition ∧ w); deletions rewrite the
// target into conditioned copies (the construction of slide 15 of the
// paper), which can grow the tree exponentially under complex
// dependencies — Simplify shrinks it back where possible.
//
// # Warehouse
//
// OpenWarehouse provides the durable store of the paper's architecture:
// named fuzzy documents on the file system, a journal in which one
// record — a document's full state, or the transaction an update
// applied to it — is one mutation, document files that are checkpoints
// of that journal, and replay-only crash recovery. Updates can also be
// expressed in an XUpdate-style XML syntax (ReadTransactionXML).
//
// # Durability and recovery
//
// The warehouse applies each probabilistic update atomically, matching
// the paper's update semantics (Section 5): a mutation either happened
// in full or not at all, and which one the caller was told is what a
// crash preserves. Concretely:
//
//   - A mutation (Create, Update, Simplify, Drop) is its single
//     journal record: its own sequence number and, for a Create, the
//     document; for an Update or Simplify, the transaction and the
//     confidence event it minted, plus the full post-state on the
//     first update of a document after open or compaction and then on
//     every 32nd. It is acknowledged — the call returns nil — exactly when that
//     record has been flushed and fsynced, and its result becomes
//     visible to readers only after that, so a reader never observes
//     a state a crash can take back. Mutations on different documents
//     interleave their records; concurrent fsyncs are group-committed.
//     An update touches no document file: the files are checkpoints
//     of the journal, written by Compact (which then syncs them and
//     drops the journal) and by Close.
//
//   - A mutation that returned an error never happened, with one
//     exception: the mutation whose own journal write, flush or fsync
//     failed. Nobody can say whether its bytes reached the disk; the
//     warehouse goes read-only (ErrDegraded), never shows the result,
//     and the next OpenWarehouse keeps the mutation if its record is
//     whole and drops it if it is torn. Either is legal for a call
//     that was not acknowledged.
//
//   - Recovery at OpenWarehouse only replays: it scans the whole
//     journal and, per document, re-applies the transactions after its
//     last full state (at most 31, each minting exactly the event its
//     record names) to that state, whatever a kill left in the
//     document files — those are never a replay base. A replay that
//     lands on a different node count fails the open instead of
//     serving a different document. A record that was whole but
//     unacknowledged at a crash rolls forward; a torn one vanishes.
//     No current version writes a marker: a Create or Drop touches the
//     journal only, like an update. The abort markers of journals
//     written by earlier versions still mean "the caller was told this
//     failed and nothing changed".
//
// The on-disk record format, the torn-write rules and a worked
// recovery example are in docs/JOURNAL.md; pxwarehouse verify-journal
// inspects a journal without recovering it.
//
// # Storage engines
//
// Persistence is pluggable: every durable byte flows through a storage
// backend interface, and two embedded backends ship — "filestore"
// (one file per document plus a JSON-lines journal, the original
// layout) and "kv" (a single append-only page file of CRC-framed,
// sequence-tagged records). OpenWarehouse keeps its historical
// behavior; OpenWarehouseBackend selects a backend by name
// (StoreFile, StoreKV, or StoreAuto to detect from the directory, as
// the pxserve and pxwarehouse -store flags do). The durability
// guarantees above are backend-independent: both backends pass the
// same crash, fault-injection and recovery suites, and a differential
// harness holds their post-recovery states byte-identical under
// identical workloads. File formats, durability points and the
// contract for writing a third backend are in docs/STORAGE.md.
//
// # Server
//
// NewServer wraps a warehouse in an HTTP/JSON API (the cmd/pxserve
// binary): document CRUD under /docs/{name}, POST query and update
// routes accepting the TPWJ or XPath query syntaxes and the textual or
// XUpdate transaction forms, plus simplify, stat, compact and /stats
// admin routes. The warehouse locks per document — a striped table of
// reader/writer lock pairs — so requests on different documents never
// contend and queries run in parallel with the computation phase of
// updates. Every query and search is evaluated on the document's
// current snapshot; a query a client repeats belongs in a materialized
// view, which the warehouse maintains incrementally per version.
//
// # Observability
//
// Every layer records into internal/obs, the shared metrics registry
// (lock-free counters, gauges, latency histograms) and span-tracing
// substrate. The server renders the merged registries as JSON under
// /stats (beside the one hand-built storage section) and as
// Prometheus text under /metrics, with the same series keys in both;
// each request runs under a trace
// whose span tree (warehouse snapshot fetch, symbolic match, DNF
// compile, probability evaluation, journal writes, view maintenance)
// is retained in a bounded ring, echoed by ?trace=1, and fed into
// per-stage histograms. The ring is served at GET /debug/traces on
// pxserve's private -pprof debug address (or on the main mux when
// ServerOptions.ExposeDebugTraces is set). Requests over ServerOptions.
// SlowQueryThreshold are logged with their span breakdown. See
// docs/OBSERVABILITY.md for the metric catalog and span names.
//
// The quickest way in:
//
//	doc := fuzzyxml.MustParseFuzzy("A(B[w1 !w2], C(D[w2]))",
//		map[fuzzyxml.EventID]float64{"w1": 0.8, "w2": 0.7})
//	answers, _ := fuzzyxml.EvalQuery(fuzzyxml.MustParseQuery("A(B)"), doc)
//	// answers[0].P == 0.24
package fuzzyxml
