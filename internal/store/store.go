// Package store defines the persistence surface of the warehouse: the
// Store interface covers everything the warehouse writes or reads on
// disk — the write-ahead journal (append/flush/fsync/scan/reset), the
// document pages, the view-registry snapshot, and layout
// initialization — so the on-disk format becomes a backend choice.
//
// Only the journal is on a mutation's path. Document pages are
// checkpoints of it: the warehouse lists them once at open, reads one
// on a document's first load, and writes or removes them only while
// recovering and checkpointing (Close, Compact). Which documents exist
// is the warehouse's in-memory table, not a store query.
//
// Two backends implement it: filestore (file per document, JSON-lines
// journal, views.json snapshot — the original layout) and kv (a single
// append-only page file holding Seq-tagged records). Both route every
// byte through vfs.FS, so the fault-injection sweep covers them with
// the same machinery, and the cross-backend differential suite in
// internal/warehouse asserts they recover to identical states from
// identical op streams. docs/STORAGE.md specifies the contract in
// prose, including what a third backend must provide.
package store

// MaxRecordBytes bounds one journal record payload. Enforced by the
// warehouse at append time so an oversized mutation fails cleanly
// instead of writing a record the scan would reject as corrupt — which
// would truncate every record after it on the next open. Backends use
// it to bound allocation while scanning. The cap leaves generous
// headroom over the server's 64MB body limit after JSON escaping.
const MaxRecordBytes = 512 << 20

// Log is an open journal appender. Append buffers one record payload
// (the backend adds its own framing); Flush pushes the buffer to the
// operating system; Sync makes everything flushed durable. The
// warehouse's group-commit layer sits on top: it serializes Append
// calls and batches Flush+Sync across concurrent mutations, and it —
// not the backend — latches the instance dead after a flush or sync
// failure.
type Log interface {
	// Append buffers one record payload. The payload must not contain
	// backend framing; it is returned verbatim by Open and ScanJournal.
	Append(p []byte) error
	// Flush writes the buffer through to the operating system.
	Flush() error
	// Sync makes all flushed records durable (fsync).
	Sync() error
	// Close flushes and releases the appender. The Store stays open.
	Close() error
}

// Stats describes a backend's on-disk footprint, served under the
// /stats "storage" section.
type Stats struct {
	// Backend is the backend name ("filestore" or "kv").
	Backend string `json:"backend"`
	// Docs is the number of stored documents.
	Docs int `json:"docs"`
	// Bytes is the total on-disk size: journal plus documents plus the
	// view snapshot (filestore), or the page file (kv).
	Bytes int64 `json:"bytes"`
	// LiveBytes is the size of the live data within Bytes. For
	// filestore the two are equal; for kv the gap is garbage a Compact
	// would reclaim (superseded pages and journal frames).
	LiveBytes int64 `json:"live_bytes"`
}

// Store is one warehouse persistence backend rooted at a directory.
// Implementations need not be safe for arbitrary concurrent use: the
// warehouse serializes journal traffic through its group-commit layer
// and writes documents only while no other operation runs, but
// read methods (ReadDoc, ListDocs, Stats, ScanJournal) may be called
// concurrently with each other and with journal appends.
//
// Missing documents are reported with errors satisfying
// errors.Is(err, fs.ErrNotExist), the convention the warehouse maps to
// its ErrNotFound.
type Store interface {
	// Backend returns the backend name ("filestore", "kv").
	Backend() string

	// Open initializes the on-disk layout (creating it if necessary),
	// scans the journal — truncating any torn tail so later appends
	// land on a clean boundary — and returns the surviving record
	// payloads in append order plus a fresh Log positioned after them.
	// valid reports whether a payload parses as a journal record;
	// backends use it to tell a torn tail from a clean end, calling it
	// exactly once per journal payload, in append order, and keeping a
	// payload iff it returned true (the warehouse decodes its records
	// inside the callback). Open is also the recovery entry point after
	// a failure: calling it on an already-open store discards all
	// in-memory state and re-reads the disk.
	Open(valid func(payload []byte) bool) ([][]byte, Log, error)

	// ScanJournal re-reads the journal payloads without truncating or
	// otherwise writing, reporting whether a torn tail follows them.
	// It must work without Open having been called (read-only audit of
	// a crashed directory) and concurrently with appends (a record
	// caught mid-flush reads as a torn tail, like a crash would leave).
	ScanJournal(valid func(payload []byte) bool) ([][]byte, bool, error)

	// ResetJournal drops all journal records, compacting the backend's
	// storage. The caller must have closed the current Log and made
	// every document and the view snapshot durable first; OpenJournal
	// provides the successor Log.
	ResetJournal() error

	// OpenJournal opens a fresh Log after ResetJournal.
	OpenJournal() (Log, error)

	// ReadDoc returns the named document's content.
	ReadDoc(name string) ([]byte, error)
	// WriteDoc atomically replaces the document's content. With sync
	// the content is durable on return; without it the caller relies
	// on the journal holding a copy (the warehouse's stored documents
	// are checkpoints of its journal and are always written unsynced).
	WriteDoc(name string, data []byte, sync bool) error
	// RemoveDoc deletes the document.
	RemoveDoc(name string) error
	// ListDocs returns the sorted names of all stored documents.
	ListDocs() ([]string, error)
	// SyncDocs makes every document durable (Compact's barrier before
	// the journal — until then the durable copy — is dropped).
	SyncDocs() error

	// ReadViews returns the view-registry snapshot, with ok=false (and
	// a nil error) when none has been written.
	ReadViews() (data []byte, ok bool, err error)
	// WriteViews durably replaces the view-registry snapshot.
	WriteViews(data []byte) error

	// Stats reports the backend's on-disk footprint.
	Stats() (Stats, error)

	// Close releases all handles. Open may be called again afterwards.
	Close() error
}
