// Package warehouse implements the probabilistic XML warehouse of the
// paper (slides 3 and 16): named fuzzy documents stored on the file
// system, updated by probabilistic transactions and queried with TPWJ
// queries. The implementation adds the durability a production system
// needs: a journal in which one record is one mutation — a create's
// full state, or an update's transaction, with a full post-state on
// every fullStateEvery-th update of a document — stored documents that
// are checkpoints of that journal, and replay-only recovery on open.
//
// Concurrency is per document: the table of documents (see docEntry)
// gives each document one mutex, which serializes its mutations and its
// cold load. A mutation computes its successor version whole — the new
// tree and every registered view's state on it (see Snapshot) — before
// it journals it and publishes it. Published snapshots are immutable,
// so reads take no per-document lock: queries and view reads on the
// same document run in parallel with each other and with a writer's
// whole mutation. Mutations on different documents overlap through
// their durable phase too: the only global sections are the table's
// lookups and the journal's in-memory append, with concurrent fsyncs
// group-committed (see journal).
//
// # Durability and recovery
//
// A mutation (Create, Update, Simplify, Drop) is its single journal
// record. Acknowledged ⇔ the record was fsynced before the reply; a
// reader never observes a state a crash can take back, because the
// result is published only after that fsync. An error means the
// mutation never happened, except for the one mutation whose own
// journal write, flush or fsync failed: the journal latches dead, the
// warehouse degrades, and the next Open keeps that mutation if its
// record is whole and drops it if it is torn. Either is legal for a
// call nobody acknowledged, and it is the only indeterminate outcome.
//
// Stored documents (docs/*.pxml, kv document pages) are checkpoints of
// the journal, not part of a commit: no mutation touches them. The
// table of documents, filled from the store at Open, is the authority
// on which documents exist, so a create or a drop is its record alone,
// like an update. Compact and Close checkpoint — write every document
// mutated since the last checkpoint and remove the pages of dropped
// ones — and Compact then makes the pages durable and truncates the
// journal. Pages are never a replay base. Recovery at Open replays:
// per document, the last full-state record or drop is the base, the
// transaction-only records after it are re-applied to it (at most
// fullStateEvery-1 of them), and a page that differs from the result
// is rewritten or removed (see Warehouse.recover).
//
// # Fault tolerance
//
// All I/O goes through an injectable filesystem (vfs.FS; OpenFS
// accepts any implementation, Open uses vfs.OS), so every storage
// failure is testable: the fault sweep in fault_test.go arms a
// fail-once fault at every named I/O point — including torn writes —
// and asserts that acknowledged operations survive recovery and
// failed ones vanish. Failures the warehouse can cleanly abort
// (checkpoint page writes, view-snapshot writes) just return errors;
// failures that break the durability promise itself (the journal
// cannot be appended to or fsynced, compaction failed past its point
// of no return) switch the warehouse into degraded read-only mode:
// every mutation returns ErrDegraded, reads keep serving the
// committed in-memory state, and the mode is sticky until Reopen
// re-runs recovery successfully. Degraded makes the px_degraded gauge
// 1 and is reported by Warehouse.Degraded with a reason. See
// docs/FAULTS.md for the fault-point catalog and the operator
// runbook.
package warehouse

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fuzzy"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/filestore"
	"repro/internal/store/kv"
	"repro/internal/tpwj"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/view"
	"repro/internal/xmlio"
	"repro/internal/xupdate"
)

// The filestore backend's on-disk layout, named here because tests and
// tools poke it directly (seeding raw files, truncating the journal).
const (
	docsDir     = "docs"
	docExt      = ".pxml"
	journalFile = "journal.log"
)

// Storage backend names, accepted by OpenBackend and the -store flags
// of pxserve and pxwarehouse.
const (
	// BackendFile is the file-per-document layout: docs/<name>.pxml
	// files, a JSON-lines journal.log, a views.json snapshot.
	BackendFile = "filestore"
	// BackendKV is the single-file page store: every durable byte in
	// one kv.store file of Seq-tagged CRC-framed records.
	BackendKV = "kv"
	// BackendAuto selects by inspecting the directory: kv if a kv.store
	// page file exists, filestore otherwise (also for fresh dirs).
	BackendAuto = "auto"
)

// Sentinel errors, for callers (such as the HTTP server) that map
// failures to categories. Returned errors wrap these; test with
// errors.Is.
var (
	// ErrNotFound reports an operation on a missing document.
	ErrNotFound = errors.New("no such document")
	// ErrExists reports a Create of a name already in use.
	ErrExists = errors.New("document already exists")
	// ErrInvalidName reports a document name outside the safe alphabet
	// [A-Za-z0-9_-].
	ErrInvalidName = errors.New("invalid document name")
	// ErrClosed reports use of a closed warehouse.
	ErrClosed = errors.New("warehouse: closed")
	// ErrDegraded reports a write rejected because the warehouse is in
	// degraded read-only mode after an unrecoverable storage error
	// (typically a journal fsync failure). Reads keep serving from
	// in-memory snapshots; Reopen re-runs recovery and clears the
	// state. See docs/FAULTS.md.
	ErrDegraded = errors.New("warehouse: degraded (read-only)")
)

// Warehouse is a collection of named fuzzy documents persisted under one
// directory. All methods are safe for concurrent use.
type Warehouse struct {
	dir string

	// st is the storage backend every byte of warehouse persistence
	// goes through (see store.Store). The backend in turn routes its
	// I/O through a vfs.FS — vfs.OS in production, a vfs.FaultFS in
	// fault-injection tests (see OpenFS/OpenBackend). No other code in
	// this package may call package os file functions.
	st store.Store

	// degraded latches read-only mode after an unrecoverable
	// write-path error (see setDegraded). It is an atomic so the write
	// paths can check it without a lock; degradedMu guards the reason
	// string only.
	degraded       atomic.Bool
	degradedMu     sync.Mutex
	degradedReason string

	// reg is this warehouse's metrics registry (journal, recovery,
	// search-index and view-maintenance counters live on it). It is
	// per-instance — tests open many warehouses in one process — and
	// the server merges it into /metrics alongside its own registry
	// and the process-global obs.Default().
	reg *obs.Registry

	// mu guards closed and the journal pointer. Operations hold it
	// shared for their duration; Close and Compact hold it exclusively,
	// so they wait out in-flight operations and nothing starts while
	// they run.
	mu      sync.RWMutex
	closed  bool
	journal *journal

	// jc accumulates journal activity; it survives the journal
	// replacement Compact performs, so the counters stay monotonic.
	jc journalCounters

	// recoveryReplays counts the documents recovery caught up, and
	// recoveryTxReplayed the Tx-only records it re-applied to do so;
	// both are written during Open (before the warehouse is shared).
	recoveryReplays    *obs.Counter
	recoveryTxReplayed *obs.Counter

	// docsMu guards docs, the table of documents: one entry per
	// document that exists or is being created (see docEntry). Open
	// fills it from the store, and Reopen rebuilds it.
	docsMu sync.RWMutex
	docs   map[string]*docEntry

	// version numbers published snapshots (see publish).
	version atomic.Uint64

	search searchCounters

	// views accumulates the view maintenance counters; the views
	// themselves live on their documents' entries (see docEntry).
	views viewRegistry
}

// fullStateEvery bounds replay: every fullStateEvery-th record of a
// document's journal carries its full state, so recovery re-applies at
// most fullStateEvery-1 transactions per document.
const fullStateEvery = 32

// docEntry is one document's row in the table of documents: its writer
// mutex, published version, registered views and checkpoint state, all
// of which leave the table with it. Two rules keep the table and the
// stored pages in step. A Create publishes its snapshot before it goes
// live, so a live entry without a snapshot — one filled in by Open and
// not read since — always has a current page. And a snapshot, once
// published, stays resident until Drop or Reopen takes the entry out,
// so a document changed since the last checkpoint is never read back
// from its stale page.
type docEntry struct {
	// mu is the document's writer mutex. It is held across a whole
	// mutation — compute, view maintenance, journal append, publish —
	// across a cold load, and across a Create until the document is
	// live or unlisted. Readers of a resident document never take it.
	mu sync.Mutex

	// snap is the published version, nil until the first cold load.
	snap atomic.Pointer[Snapshot]

	// live is false while the document's Create is being journaled:
	// until then the document exists for no reader and no other writer.
	live atomic.Bool

	// views is the document's view definitions, sorted by name: a slice
	// never edited, which RegisterView and DropView replace under mu and
	// readers load (see viewList). They leave the table with the entry.
	views atomic.Pointer[[]*viewHandle]

	// gone, dirty and tail are guarded by mu, or by the warehouse lock
	// held exclusively (Close, Compact, Reopen). gone marks an entry a
	// Drop or a failed Create took out of the table; a writer that
	// acquires mu after that finds the document missing. dirty says the
	// stored page is behind snap, because a mutation journaled a state
	// the store has not been given; the journal holds it durably, so
	// dirty only says what checkpoint must write. tail counts the
	// Tx-only records since the document's last full-state record in
	// the current journal, -1 meaning there is none, so the next update
	// writes one.
	gone  bool
	dirty bool
	tail  int
}

// newEntry returns an entry with no full-state record in the journal.
func newEntry() *docEntry { return &docEntry{tail: -1} }

// entry returns the live entry of the named document.
func (w *Warehouse) entry(name string) (*docEntry, error) {
	w.docsMu.RLock()
	e := w.docs[name]
	w.docsMu.RUnlock()
	if e == nil || !e.live.Load() {
		return nil, fmt.Errorf("warehouse: %w: %q", ErrNotFound, name)
	}
	return e, nil
}

// lockEntry returns the live entry of the named document with its
// mutex held, or ErrNotFound if there is none or a Drop took it out of
// the table while the caller waited for the mutex.
func (w *Warehouse) lockEntry(name string) (*docEntry, error) {
	e, err := w.entry(name)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.gone {
		e.mu.Unlock()
		return nil, fmt.Errorf("warehouse: %w: %q", ErrNotFound, name)
	}
	return e, nil
}

// unlist takes e, whose mutex the caller holds, out of the table.
func (w *Warehouse) unlist(name string, e *docEntry) {
	w.docsMu.Lock()
	if w.docs[name] == e {
		delete(w.docs, name)
	}
	w.docsMu.Unlock()
	e.gone = true
}

// checkpoint writes the current snapshot of every dirty document to
// the store and removes the page of every stored name the table no
// longer lists, unsynced: Compact follows it with SyncDocs before it
// truncates the journal, and Close needs no durability from it — the
// journal keeps every record, and a checkpoint only saves the next
// Open the replay. The caller holds the warehouse exclusively, so every
// entry is live. A failure leaves the remaining work for the next
// checkpoint and loses nothing.
func (w *Warehouse) checkpoint() error {
	for name, e := range w.docs {
		if !e.dirty {
			continue
		}
		data, err := xmlio.DocXML(e.snap.Load().tree)
		if err != nil {
			return err
		}
		if err := w.writeDoc(name, data); err != nil {
			return fmt.Errorf("warehouse: checkpoint of %q: %w", name, err)
		}
		e.dirty = false
	}
	stored, err := w.st.ListDocs()
	if err != nil {
		return fmt.Errorf("warehouse: checkpoint: %w", err)
	}
	for _, name := range stored {
		if _, ok := w.docs[name]; ok {
			continue
		}
		if err := w.st.RemoveDoc(name); err != nil {
			return fmt.Errorf("warehouse: checkpoint of dropped %q: %w", name, err)
		}
	}
	return nil
}

// Open opens (creating if necessary) a warehouse rooted at dir and
// recovers it: every document the journal mentions is brought to its
// last journaled state. See recover in recovery.go. Open uses the
// filestore backend; OpenBackend selects another.
func Open(dir string) (*Warehouse, error) {
	return OpenFS(dir, vfs.OS)
}

// OpenFS is Open with an explicit filesystem. Production callers use
// Open (vfs.OS); fault-injection tests pass a vfs.FaultFS to fail
// chosen I/O calls by named fault point.
func OpenFS(dir string, fsys vfs.FS) (*Warehouse, error) {
	return OpenBackend(dir, BackendFile, fsys)
}

// OpenBackend is Open with an explicit storage backend (BackendFile,
// BackendKV, or BackendAuto to inspect the directory) and filesystem.
func OpenBackend(dir, backend string, fsys vfs.FS) (*Warehouse, error) {
	st, err := newBackendStore(dir, backend, fsys)
	if err != nil {
		return nil, err
	}
	return OpenStore(dir, st)
}

// newBackendStore constructs the named storage backend rooted at dir.
func newBackendStore(dir, backend string, fsys vfs.FS) (store.Store, error) {
	switch backend {
	case BackendFile, "":
		return filestore.New(dir, fsys), nil
	case BackendKV:
		return kv.New(dir, fsys), nil
	case BackendAuto:
		return newBackendStore(dir, DetectBackend(dir), fsys)
	default:
		return nil, fmt.Errorf("warehouse: unknown storage backend %q (want %q, %q or %q)",
			backend, BackendFile, BackendKV, BackendAuto)
	}
}

// DetectBackend reports which storage backend the warehouse directory
// holds: BackendKV if its page file exists, BackendFile otherwise
// (including for directories that do not exist yet).
func DetectBackend(dir string) string {
	if _, err := os.Stat(filepath.Join(dir, kv.FileName)); err == nil {
		return BackendKV
	}
	return BackendFile
}

// OpenStore opens a warehouse over an already-constructed storage
// backend. OpenBackend is the convenience wrapper every normal caller
// uses; OpenStore exists for callers that build the backend themselves.
func OpenStore(dir string, st store.Store) (*Warehouse, error) {
	reg := obs.NewRegistry()
	w := &Warehouse{dir: dir, st: st, reg: reg}
	w.jc = journalCounters{
		appends:   reg.Counter("px_journal_appends_total", "journal records durably appended"),
		batches:   reg.Counter("px_journal_sync_batches_total", "journal fsync calls (group commit: batches <= appends)"),
		bytes:     reg.Counter("px_journal_bytes_total", "journal record payload bytes durably appended (backend framing excluded)"),
		fullState: reg.Counter("px_journal_full_state_total", "mutation records durably appended with a full document state"),
	}
	w.recoveryReplays = reg.Counter("px_recovery_replays_total", "documents replayed from the journal at the last Open")
	w.recoveryTxReplayed = reg.Counter("px_recovery_tx_replayed_total", "transaction-only journal records re-applied at the last Open")
	w.search.initMetrics(reg)
	w.views.initMetrics(reg)
	reg.GaugeFunc("px_views_registered", "currently registered materialized views",
		func() float64 { return float64(w.viewCount()) })
	reg.GaugeFunc("px_degraded", "1 while the warehouse is in degraded read-only mode, else 0",
		func() float64 {
			if w.degraded.Load() {
				return 1
			}
			return 0
		})
	if err := w.loadFromDisk(); err != nil {
		return nil, err
	}
	return w, nil
}

// openRecords opens the backend and returns its journal decoded, each
// payload exactly once: the backend asks valid about every journal
// payload once, in append order, and keeps it iff the answer is true,
// so the records decoded while answering are the records it kept.
func openRecords(st store.Store) ([]Record, store.Log, error) {
	var records []Record
	payloads, log, err := st.Open(func(payload []byte) bool {
		var r Record
		if !decodeRecord(payload, &r) {
			return false
		}
		records = append(records, r)
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("warehouse: %w", err)
	}
	if len(records) != len(payloads) {
		log.Close() //nolint:errcheck // already failing; the contract error wins
		return nil, nil, fmt.Errorf("warehouse: %s backend kept %d journal payloads of the %d it validated",
			st.Backend(), len(payloads), len(records))
	}
	return records, log, nil
}

// loadFromDisk runs the open sequence against the storage backend:
// initialize the layout and scan the journal (truncating any torn
// tail), read the view snapshot, replay recovery, and fill the table of
// documents from the pages recovery brought up to the journal, each
// entry with the views recovery found for its document. Views of a
// document that does not exist find no entry and are dropped. Shared
// by OpenStore and Reopen; the caller must hold the warehouse
// exclusively (Reopen) or privately (OpenStore, before the value is
// shared).
func (w *Warehouse) loadFromDisk() error {
	records, log, err := openRecords(w.st)
	if err != nil {
		return err
	}
	j := newJournal(log, maxSeq(records), &w.jc, w.setDegraded)
	w.journal = j
	seed, err := w.readViewSnapshot()
	if err != nil {
		j.close() //nolint:errcheck // already failing; the open error wins
		return err
	}
	hist, err := w.recover(seed, records)
	if err != nil {
		j.close() //nolint:errcheck // already failing; the open error wins
		return err
	}
	names, err := w.st.ListDocs()
	if err != nil {
		j.close() //nolint:errcheck // already failing; the open error wins
		return fmt.Errorf("warehouse: %w", err)
	}
	docs := make(map[string]*docEntry, len(names))
	for _, name := range names {
		e := newEntry()
		if d := hist[name]; d != nil {
			e.setViews(d.views)
		}
		e.live.Store(true)
		docs[name] = e
	}
	w.docsMu.Lock()
	w.docs = docs
	w.docsMu.Unlock()
	return nil
}

// Close checkpoints the stored documents (unless degraded: the store
// may be the very thing that failed, and the journal has every record
// anyway), then releases the journal and the storage backend. The
// warehouse must not be used afterwards.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var err error
	if !w.degraded.Load() {
		err = w.checkpoint()
	}
	if cerr := w.journal.close(); err == nil {
		err = cerr
	}
	if cerr := w.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// setDegraded flips the warehouse into degraded read-only mode. Called
// on unrecoverable write-path errors — notably a journal flush/fsync
// failure, where the page cache may have dropped the very bytes the
// fsync claimed to persist, so retrying is not an option. It only sets
// flags (it runs from under journal locks); the first cause wins.
func (w *Warehouse) setDegraded(op string, err error) {
	w.degradedMu.Lock()
	if !w.degraded.Load() {
		w.degradedReason = fmt.Sprintf("%s: %v", op, err)
		w.degraded.Store(true)
	}
	w.degradedMu.Unlock()
}

// Degraded reports whether the warehouse is in degraded read-only mode
// and, if so, the storage failure that caused it.
func (w *Warehouse) Degraded() (bool, string) {
	if !w.degraded.Load() {
		return false, ""
	}
	w.degradedMu.Lock()
	defer w.degradedMu.Unlock()
	return true, w.degradedReason
}

// checkWritable rejects mutations while degraded, wrapping ErrDegraded
// with the original storage failure.
func (w *Warehouse) checkWritable() error {
	if !w.degraded.Load() {
		return nil
	}
	_, reason := w.Degraded()
	return fmt.Errorf("%w: %s", ErrDegraded, reason)
}

// startMutation is startOp plus the degraded-mode write rejection. All
// mutating entry points (Create, Update, Simplify, Drop, RegisterView,
// DropView, Compact) go through it; read paths use startOp and keep
// serving while degraded.
func (w *Warehouse) startMutation() (release func(), err error) {
	release, err = w.startOp()
	if err != nil {
		return nil, err
	}
	if err := w.checkWritable(); err != nil {
		release()
		return nil, err
	}
	return release, nil
}

// Reopen recovers a degraded warehouse in place: it waits out in-flight
// operations, discards all in-memory state (snapshots, view
// materializations, the failed journal instance), re-runs the full
// open sequence — torn-tail truncation, journal replay — and clears
// degraded mode. What recovery reconstructs from disk is the
// acknowledged history, plus the mutation that failed in the journal if
// its record turns out whole; callers resume as after a fresh Open. It
// is also safe on a healthy warehouse (an expensive no-op that drops
// caches).
func (w *Warehouse) Reopen() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	// The old journal instance is dead (or about to be replaced); its
	// close error carries no information recovery doesn't re-derive
	// from disk.
	w.journal.close() //nolint:errcheck
	if err := w.loadFromDisk(); err != nil {
		return err
	}
	w.degradedMu.Lock()
	w.degradedReason = ""
	w.degraded.Store(false)
	w.degradedMu.Unlock()
	return nil
}

// Dir returns the warehouse root directory.
func (w *Warehouse) Dir() string { return w.dir }

// Backend returns the storage backend's name ("filestore", "kv").
func (w *Warehouse) Backend() string { return w.st.Backend() }

// StorageStats reports the storage backend's on-disk footprint. Served
// by pxserve under /stats as "storage".
func (w *Warehouse) StorageStats() (store.Stats, error) {
	release, err := w.startOp()
	if err != nil {
		return store.Stats{}, err
	}
	defer release()
	return w.st.Stats()
}

// Registry returns the warehouse's metrics registry: journal,
// recovery, keyword-index and view-maintenance counters. The HTTP
// server merges it into GET /metrics.
func (w *Warehouse) Registry() *obs.Registry { return w.reg }

// ValidateName reports whether name is usable as a document name,
// wrapping ErrInvalidName otherwise. Callers such as the HTTP server
// use it to reject requests before doing expensive work (parsing a
// large document body) on a name the warehouse would refuse anyway.
func ValidateName(name string) error { return validName(name) }

// validName restricts document names to a safe alphabet.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("warehouse: %w: empty name", ErrInvalidName)
	}
	for _, r := range name {
		ok := r == '_' || r == '-' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("warehouse: %w: %q", ErrInvalidName, name)
		}
	}
	return nil
}

// startOp pins the warehouse open for the duration of one operation.
// The returned release function must be called when the operation ends.
func (w *Warehouse) startOp() (release func(), err error) {
	w.mu.RLock()
	if w.closed {
		w.mu.RUnlock()
		return nil, ErrClosed
	}
	return w.mu.RUnlock, nil
}

// writeDoc atomically replaces the document's stored page, without an
// fsync of its own: a page is a checkpoint of the journal, which holds
// the content durably and is replayed over whatever a crash leaves of
// the page. Compact's SyncDocs is the one barrier, before the journal
// is truncated.
func (w *Warehouse) writeDoc(name string, data []byte) error {
	return w.st.WriteDoc(name, data, false)
}

// readDoc loads and parses the document from the store.
func (w *Warehouse) readDoc(name string) (*fuzzy.Tree, error) {
	data, err := w.st.ReadDoc(name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("warehouse: %w: %q", ErrNotFound, name)
	}
	if err != nil {
		return nil, err
	}
	ft, err := xmlio.ParseDoc(data)
	if err != nil {
		return nil, fmt.Errorf("warehouse: document %q corrupt: %w", name, err)
	}
	return ft, nil
}

// loadSnapshot returns the document's current snapshot, loading the
// document from its page and publishing it on first use. Snapshots are
// swapped atomically and never edited, so the hot path takes no lock;
// a cold load takes the document's mutex. Names the table does not
// list are rejected without any allocation, so clients probing
// arbitrary names can never grow it.
func (w *Warehouse) loadSnapshot(name string) (*Snapshot, error) {
	e, err := w.entry(name)
	if err != nil {
		return nil, err
	}
	return w.loadEntry(name, e)
}

// loadEntry is loadSnapshot for a caller that has looked up the
// document's entry.
func (w *Warehouse) loadEntry(name string, e *docEntry) (*Snapshot, error) {
	if s := e.snap.Load(); s != nil {
		return s, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.gone {
		return nil, fmt.Errorf("warehouse: %w: %q", ErrNotFound, name)
	}
	return w.loadLocked(name, e)
}

// loadLocked is loadSnapshot for a caller that holds the entry's
// mutex. A live entry without a snapshot has a current page (see
// docEntry).
func (w *Warehouse) loadLocked(name string, e *docEntry) (*Snapshot, error) {
	if s := e.snap.Load(); s != nil {
		return s, nil
	}
	ft, err := w.readDoc(name)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{tree: ft}
	w.publish(e, s)
	return s, nil
}

// install journals one mutation's record. The caller holds the
// document's mutex and has done all computation already, including the
// successor version's view states, so what follows a successful
// install — publish, a change to the table or an entry's views — is
// pointer work. Installs on different documents interleave freely;
// their journal appends share group-committed fsyncs.
//
// The record is the commit: once install returns nil the mutation is
// durable and acknowledged-to-be, and only then may the caller make it
// visible. A journal failure returns before that, so readers keep the
// pre-state.
func (w *Warehouse) install(ctx context.Context, rec Record) error {
	ctx, span := obs.StartSpan(ctx, "warehouse.install")
	defer span.End()
	_, jspan := obs.StartSpan(ctx, "journal.append")
	_, err := w.journal.append(obs.CostFromContext(ctx), rec)
	jspan.End()
	return err
}

// Create stores a new document under the given name.
func (w *Warehouse) Create(name string, ft *fuzzy.Tree) error {
	return w.CreateCtx(context.Background(), name, ft)
}

// CreateCtx is Create with a context: the journal append records spans
// when the context carries an obs trace.
//
// The document enters the table at once, not yet live and with its
// mutex held: readers and other writers find no document until its
// record is durable and its snapshot published, and a second Create of
// the name waits for this one's outcome. The record carries the full
// state, so the page waits for the next checkpoint.
func (w *Warehouse) CreateCtx(ctx context.Context, name string, ft *fuzzy.Tree) error {
	if err := validName(name); err != nil {
		return err
	}
	if err := ft.Validate(); err != nil {
		return err
	}
	data, err := xmlio.DocXML(ft)
	if err != nil {
		return err
	}
	release, err := w.startMutation()
	if err != nil {
		return err
	}
	defer release()
	e := newEntry()
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		w.docsMu.Lock()
		cur := w.docs[name]
		if cur == nil {
			w.docs[name] = e
			w.docsMu.Unlock()
			break
		}
		w.docsMu.Unlock()
		// Only a Create that failed, or a Drop, leaves the name free.
		cur.mu.Lock()
		gone := cur.gone
		cur.mu.Unlock()
		if !gone {
			return fmt.Errorf("warehouse: %w: %q", ErrExists, name)
		}
	}
	if err := w.install(ctx, Record{Op: OpCreate, Doc: name, Content: string(data)}); err != nil {
		w.unlist(name, e)
		return err
	}
	e.tail, e.dirty = 0, true
	w.publish(e, &Snapshot{tree: ft.Clone()})
	e.live.Store(true)
	return nil
}

// Get returns a deep copy of the named document. The copy is made
// outside every lock.
func (w *Warehouse) Get(name string) (*fuzzy.Tree, error) {
	s, err := w.Snapshot(context.Background(), name)
	if err != nil {
		return nil, err
	}
	return s.tree.Clone(), nil
}

// GetXML returns the document serialized as pxml XML. Unlike Get it
// copies nothing: the snapshot is immutable, so it is serialized in
// place — the cheap path for read-heavy servers.
func (w *Warehouse) GetXML(name string) ([]byte, error) {
	return w.GetXMLCtx(context.Background(), name)
}

// GetXMLCtx is GetXML with a context, traced like QueryCtx.
func (w *Warehouse) GetXMLCtx(ctx context.Context, name string) ([]byte, error) {
	s, err := w.Snapshot(ctx, name)
	if err != nil {
		return nil, err
	}
	return s.XML(ctx)
}

// List returns the sorted names of all documents.
func (w *Warehouse) List() ([]string, error) {
	release, err := w.startOp()
	if err != nil {
		return nil, err
	}
	defer release()
	w.docsMu.RLock()
	names := make([]string, 0, len(w.docs))
	for name, e := range w.docs {
		if e.live.Load() {
			names = append(names, name)
		}
	}
	w.docsMu.RUnlock()
	sort.Strings(names)
	return names, nil
}

// Drop removes the named document. The page stays until the next
// checkpoint removes it; until then the drop record is what removes
// it at recovery.
func (w *Warehouse) Drop(name string) error {
	if err := validName(name); err != nil {
		return err
	}
	release, err := w.startMutation()
	if err != nil {
		return err
	}
	defer release()
	e, err := w.lockEntry(name)
	if err != nil {
		return err
	}
	defer e.mu.Unlock()
	if err := w.install(context.Background(), Record{Op: OpDrop, Doc: name}); err != nil {
		return err
	}
	// The document's views leave with its entry, as the drop record
	// takes them at recovery (see histories).
	w.unlist(name, e)
	return nil
}

// Query evaluates a TPWJ query on the current version of the named
// document, returning answers with exact probabilities. Evaluation
// runs on the immutable snapshot after every lock is released —
// including the warehouse pin, so a slow query never stalls a pending
// Close or Compact, and queries on the same document proceed in
// parallel with each other and with the computation phase of a
// concurrent update.
func (w *Warehouse) Query(name string, q *tpwj.Query) ([]tpwj.ProbAnswer, error) {
	return w.QueryCtx(context.Background(), name, q)
}

// QueryCtx is Query with a context: when the context carries an obs
// trace, the pipeline stages (snapshot fetch, symbolic match, DNF
// compile, probability evaluation) record spans into it.
func (w *Warehouse) QueryCtx(ctx context.Context, name string, q *tpwj.Query) ([]tpwj.ProbAnswer, error) {
	s, err := w.Snapshot(ctx, name)
	if err != nil {
		return nil, err
	}
	return s.Query(ctx, q)
}

// QueryMC is Query with Monte-Carlo probability estimation, for
// documents whose condition structure makes exact computation too
// expensive.
func (w *Warehouse) QueryMC(name string, q *tpwj.Query, samples int, r *rand.Rand) ([]tpwj.ProbAnswer, error) {
	return w.QueryMCCtx(context.Background(), name, q, samples, r)
}

// QueryMCCtx is QueryMC with a context, traced like QueryCtx.
func (w *Warehouse) QueryMCCtx(ctx context.Context, name string, q *tpwj.Query, samples int, r *rand.Rand) ([]tpwj.ProbAnswer, error) {
	s, err := w.Snapshot(ctx, name)
	if err != nil {
		return nil, err
	}
	return s.QueryMC(ctx, q, samples, r)
}

// mutateDoc runs the shared writer path for document-transforming
// operations: pin the warehouse open, take the document's mutex, load
// the current snapshot, compute the successor, carry every view state
// the predecessor holds into it (see maintainViews), then journal and
// publish that version whole. compute returns the successor, built
// unpublished as &Snapshot{tree: ...}, the update record's Tx, Event and
// Nodes (the successor's node count), and the update's structural
// footprint for view maintenance (nil when unknown, forcing affected
// views to recompute). It must not write the predecessor's tree: the
// published version is shared with its readers and, under an update,
// with its successor. Concurrent readers are
// never blocked: until the install they keep reading the predecessor,
// whose view states answer for it.
//
// The record carries the successor's full state only when the
// document's journal tail calls for one (see docEntry.tail): the first
// update after Open, Reopen or Compact, and then every
// fullStateEvery-th. The others carry the transaction and the node
// count, so the request path neither serializes the document nor
// writes it to the journal.
func (w *Warehouse) mutateDoc(ctx context.Context, name string, compute func(pre *Snapshot) (*Snapshot, Record, *view.Delta, error)) error {
	if err := validName(name); err != nil {
		return err
	}
	release, err := w.startMutation()
	if err != nil {
		return err
	}
	defer release()
	e, err := w.lockEntry(name)
	if err != nil {
		return err
	}
	defer e.mu.Unlock()
	_, sspan := obs.StartSpan(ctx, "warehouse.snapshot")
	pre, err := w.loadLocked(name, e)
	sspan.End()
	if err != nil {
		return err
	}
	_, cspan := obs.StartSpan(ctx, "update.compute")
	next, rec, delta, err := compute(pre)
	cspan.End()
	if err != nil {
		return err
	}
	rec.Op, rec.Doc = OpUpdate, name
	fullState := e.tail < 0 || e.tail+1 >= fullStateEvery
	if fullState {
		data, err := xmlio.DocXML(next.tree)
		if err != nil {
			return err
		}
		// A full-state record carries the post-state, not its count.
		rec.Content, rec.Nodes = string(data), 0
	}
	_, vspan := obs.StartSpan(ctx, "view.maintain")
	w.maintainViews(ctx, e, pre, next, delta)
	vspan.End()
	if err := w.install(ctx, rec); err != nil {
		return err
	}
	if fullState {
		e.tail = 0
	} else {
		e.tail++
	}
	// No page write on the request path: the record is the durable
	// copy, and the next checkpoint brings the page up.
	e.dirty = true
	w.publish(e, next)
	return nil
}

// Update applies a probabilistic transaction to the named document,
// journaling the result durably.
func (w *Warehouse) Update(name string, tx *update.Transaction) (*update.FuzzyStats, error) {
	return w.UpdateCtx(context.Background(), name, tx)
}

// UpdateCtx is Update with a context: the compute, view-maintenance
// and install stages record spans when the context carries an obs
// trace. A cancelled context does not stop the update; it only cuts
// short view maintenance (see maintainViews).
//
// The transaction runs on the predecessor's flat form (Snapshot.flat),
// the one its readers use, so a version is flattened once; the
// successor copies only the paths the transaction edits and
// shares the rest of the predecessor's tree (update.ApplyFlat).
func (w *Warehouse) UpdateCtx(ctx context.Context, name string, tx *update.Transaction) (*update.FuzzyStats, error) {
	txXML, err := xupdate.TransactionXML(tx)
	if err != nil {
		return nil, err
	}
	var stats *update.FuzzyStats
	err = w.mutateDoc(ctx, name, func(pre *Snapshot) (*Snapshot, Record, *view.Delta, error) {
		// The transaction is checked before the version is flattened,
		// so an invalid one costs no O(document) work.
		if err := tx.Validate(); err != nil {
			return nil, Record{}, nil, err
		}
		next, nodes, s, err := tx.ApplyFlat(pre.flat(ctx))
		if err != nil {
			return nil, Record{}, nil, err
		}
		stats = s
		return &Snapshot{tree: next}, Record{Tx: string(txXML), Event: string(s.Event), Nodes: nodes}, &view.Delta{
			InsertedLabels:    s.InsertedLabels,
			DeleteTargetPaths: s.DeleteTargetPaths,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// Simplify runs fuzzy-tree simplification on the named document and
// persists the result.
func (w *Warehouse) Simplify(name string) (fuzzy.SimplifyStats, error) {
	return w.SimplifyCtx(context.Background(), name)
}

// SimplifyCtx is Simplify with a context, traced like UpdateCtx.
func (w *Warehouse) SimplifyCtx(ctx context.Context, name string) (fuzzy.SimplifyStats, error) {
	var stats fuzzy.SimplifyStats
	// The nil footprint makes every view of the document recompute:
	// simplification rewrites conditions tree-wide, which the overlap
	// analysis cannot bound.
	err := w.mutateDoc(ctx, name, func(pre *Snapshot) (*Snapshot, Record, *view.Delta, error) {
		next := pre.tree.Clone()
		stats = next.Simplify()
		return &Snapshot{tree: next}, Record{Tx: simplifyTx, Nodes: next.Size()}, nil, nil
	})
	if err != nil {
		return fuzzy.SimplifyStats{}, err
	}
	return stats, nil
}

// Info summarizes a stored document.
type Info struct {
	Name   string
	Nodes  int
	Events int
	Worlds int64
}

// Stat returns summary information about the named document.
func (w *Warehouse) Stat(name string) (Info, error) {
	s, err := w.Snapshot(context.Background(), name)
	if err != nil {
		return Info{}, err
	}
	ft := s.tree
	return Info{
		Name:   name,
		Nodes:  ft.Size(),
		Events: ft.Table.Len(),
		Worlds: ft.WorldCount(),
	}, nil
}

// Journal returns all journal records (for audit and tests). It takes
// no journal lock — stalling every mutation for the duration of a
// potentially large journal read would be worse than the alternative —
// so a call concurrent with mutations may miss records still in the
// append buffer or stop short at one caught mid-flush (the torn-tail
// semantics the backend scan already has for crashes). Quiescent reads
// are exact.
func (w *Warehouse) Journal() ([]Record, error) {
	release, err := w.startOp()
	if err != nil {
		return nil, err
	}
	defer release()
	payloads, _, err := w.st.ScanJournal(validRecord)
	if err != nil {
		return nil, err
	}
	return parseRecords(payloads)
}

// Compact checkpoints the stored documents and drops the journal
// records, reclaiming their space. It runs under the exclusive
// warehouse lock, so it waits out all in-flight operations and every
// mutation is either wholly journaled or not started. The journal is
// the durable copy of everything mutated since the last checkpoint, so
// the hand-off goes in order: write every dirty document's page and
// remove every dropped one's (checkpoint), make all pages durable
// (SyncDocs), snapshot the view definitions, and only then trade the
// journal for space (ResetJournal, which for the kv backend also
// rewrites the page file down to its live pages). After it returns,
// the stored documents are the authority until the next mutation
// journals a document's full state again — the first update of each
// document after Compact does.
func (w *Warehouse) Compact() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if err := w.checkWritable(); err != nil {
		return err
	}
	// Failures up to and including the journal close leave the journal
	// records intact on disk — the warehouse stays fully consistent and
	// writable, so these paths return a plain error.
	if err := w.checkpoint(); err != nil {
		return err
	}
	if err := w.st.SyncDocs(); err != nil {
		return err
	}
	// The journal is also the durable copy of the view definitions (its
	// view-register/view-drop records); snapshot them before dropping
	// it.
	if err := w.writeViewSnapshot(); err != nil {
		return err
	}
	if err := w.journal.close(); err != nil {
		// The instance is now closed; any later append fails and
		// degrades via the journal's latch. Reopen recovers.
		w.setDegraded("compact.close", err)
		return err
	}
	if err := w.st.ResetJournal(); err != nil {
		// Between close and a successful reopen there is no live
		// journal instance: no mutation can be made durable, so the
		// warehouse must stop accepting writes until Reopen.
		w.setDegraded("compact.reset", err)
		return err
	}
	log, err := w.st.OpenJournal()
	if err != nil {
		w.setDegraded("compact.reopen", err)
		return err
	}
	w.journal = newJournal(log, 0, &w.jc, w.setDegraded)
	// The new journal holds no full state of any document.
	for _, e := range w.docs {
		e.tail = -1
	}
	return nil
}
