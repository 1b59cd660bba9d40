package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/store"
)

// Op enumerates the journal record kinds: three document mutations and
// two view operations, plus the commit and abort markers earlier
// versions wrote.
type Op string

const (
	// OpCreate stores a new document; Content is the full post-state.
	OpCreate Op = "create"
	// OpUpdate applies a transaction (or a simplification) to a
	// document: Tx says which, Event pins the confidence event it
	// minted, and either Content is the full post-state (a full-state
	// record) or Nodes is the post-state's node count (a Tx-only
	// record, replayed over the document's last full state).
	OpUpdate Op = "update"
	// OpDrop removes a document.
	OpDrop Op = "drop"
	// OpViewRegister registers a materialized view on a document; View
	// names it and Query/Syntax carry its definition.
	OpViewRegister Op = "view-register"
	// OpViewDrop removes a materialized view.
	OpViewDrop Op = "view-drop"
	// OpCommit is the second record of the two-record protocol earlier
	// versions wrote. Nothing writes it any more and recovery ignores
	// it — a whole record is committed by being whole — but it stays a
	// recognised op so that journals written by those versions open.
	OpCommit Op = "commit"
	// OpAbort marks the mutation its RefSeq names as without effect.
	// Earlier versions wrote it when the store step after a durable
	// record (the page write of a create, the removal of a drop) failed;
	// creates and drops now touch only the journal, so nothing writes it
	// any more. Recovery and InspectJournal still honour it, so that
	// journals written by those versions open as they did.
	OpAbort Op = "abort"
)

// Mutation reports whether op is a document mutation (as opposed to a
// view operation or a marker).
func (op Op) Mutation() bool { return op == OpCreate || op == OpUpdate || op == OpDrop }

// ViewOp reports whether op changes a document's views. View operations
// are journaled like mutations but carry no document content.
func (op Op) ViewOp() bool { return op == OpViewRegister || op == OpViewDrop }

// Record is one entry of the journal, and one record is one mutation:
// it carries its own Seq, and the mutation is committed the moment the
// record is durable — the caller is acknowledged after that one fsync,
// readers see the result only after it, and recovery takes every whole
// record as a mutation that happened. A create carries the document's
// full state; an update carries its transaction, and the full
// post-state only on every fullStateEvery-th record of its document
// (see mutateDoc), so a document's journal is a base plus a bounded
// tail of transactions. Records of concurrent mutations on different
// documents interleave freely. The only records that refer to another
// are the legacy markers (see OpCommit and OpAbort).
type Record struct {
	Seq int64 `json:"seq"`
	Op  Op    `json:"op"`
	// RefSeq, on a legacy abort or commit marker, names the Seq of the
	// record the marker is about. Zero on every other record.
	RefSeq int64  `json:"ref,omitempty"`
	Doc    string `json:"doc,omitempty"` // document name (mutations only)
	// Tx is the XUpdate serialization of the applied transaction, or
	// simplifyTx for a simplification (op "update" only). Recovery
	// re-applies it to the document's last full state.
	Tx string `json:"tx,omitempty"`
	// Event is the confidence event the update minted ("" when none):
	// replay pins it, because event ids minted by a live table depend
	// on a counter no document stores.
	Event string `json:"event,omitempty"`
	// Nodes is the post-state's node count on a Tx-only update record,
	// checked after replay.
	Nodes int `json:"nodes,omitempty"`
	// Content is the full post-state document serialization: on every
	// create, and on full-state update records.
	Content string `json:"content,omitempty"`
	// View names the materialized view a view-register/view-drop record
	// concerns; Query and Syntax carry the registered definition
	// (op "view-register" only). The answer set itself is derived state
	// and is never journaled — recovery re-materializes it.
	View   string `json:"view,omitempty"`
	Query  string `json:"query,omitempty"`
	Syntax string `json:"syntax,omitempty"`
}

// maxRecordBytes bounds one journal record, enforced at append time so
// an oversized mutation fails cleanly instead of writing a payload the
// backend scan would reject as corrupt — which would truncate every
// record after it on the next open. The authoritative constant lives
// with the storage contract.
const maxRecordBytes = store.MaxRecordBytes

// encodeRecord renders r as its journal payload: one JSON object with
// '<', '>' and '&' written as themselves — document content is XML,
// and json.Marshal's HTML-safe six-byte escapes nearly doubled every
// record — and no trailing newline (framing is the backend's).
// Payloads written either way decode alike.
func encodeRecord(r Record) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(r.Content) + len(r.Content)/8 + len(r.Tx) + 256) // quotes and line breaks double
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), nil
}

// decodeRecord parses a journal payload, reporting whether it is a
// Record within the size cap.
func decodeRecord(payload []byte, r *Record) bool {
	return len(payload) < maxRecordBytes && json.Unmarshal(payload, r) == nil
}

// validRecord is what the storage backends call while scanning to
// tell a torn tail from a clean record boundary.
func validRecord(payload []byte) bool {
	var r Record
	return decodeRecord(payload, &r)
}

// parseRecords decodes the payloads a backend scan returned. The
// backend only keeps payloads validRecord accepted, so a failure here
// means the backend broke its contract.
func parseRecords(payloads [][]byte) ([]Record, error) {
	if len(payloads) == 0 {
		return nil, nil
	}
	records := make([]Record, len(payloads))
	for i, p := range payloads {
		if err := json.Unmarshal(p, &records[i]); err != nil {
			return nil, fmt.Errorf("warehouse: journal record %d corrupt: %w", i, err)
		}
	}
	return records, nil
}

// journalCounters accumulates journal activity across the journal
// instances a warehouse goes through (Compact replaces the instance
// but keeps the counters, so /stats stays monotonic). The handles live
// on the warehouse's obs registry (see Open), so /metrics reads the
// same values.
type journalCounters struct {
	appends   *obs.Counter // records durably appended
	batches   *obs.Counter // fsync calls (group commit: batches ≤ appends)
	bytes     *obs.Counter // payload bytes durably appended (backend framing excluded)
	fullState *obs.Counter // mutation records durably appended with Content
}

// journal is the warehouse's group-commit layer over a backend's
// store.Log appender. Appends from concurrent per-document mutations
// interleave freely; each append returns only once its record is
// durable, but the fsyncs of concurrent appends are group-committed:
// whichever appender reaches the disk first syncs the whole buffered
// batch, and the others observe their record already covered and
// return without their own fsync.
//
// A failed append, flush or fsync is fatal to the instance: the first
// such error is latched in failed, every later append returns it
// without touching the backend again (a failed fsync may have dropped
// the dirty pages — retrying it could "succeed" without the data being
// durable), and the degrade callback tells the warehouse to go
// read-only.
type journal struct {
	// mu guards the appender, the sequence counter, and the count of
	// buffered records. It is held only for the in-memory
	// marshal-and-buffer step, never across an fsync.
	mu      sync.Mutex
	log     store.Log
	seq     int64
	written int64 // records buffered so far

	// syncMu serializes fsyncs. synced (guarded by syncMu) is the
	// count of records durably on disk; an appender whose record index
	// is ≤ synced was covered by another appender's batch.
	syncMu sync.Mutex
	synced int64

	// failMu is a leaf lock guarding failed, the latched first
	// write-path error. It has its own mutex because append reaches it
	// under mu and syncTo under syncMu.
	failMu sync.Mutex
	failed error

	counters *journalCounters
	// degrade is the warehouse's notification hook for write-path
	// failures. It only flips flags — it must not call back into the
	// journal (it runs with journal locks held).
	degrade func(op string, err error)
}

// newJournal wraps a backend's open appender. lastSeq is the highest
// sequence number among the records the backend's scan returned (zero
// for a fresh or just-compacted journal); appends continue above it.
func newJournal(log store.Log, lastSeq int64, counters *journalCounters, degrade func(op string, err error)) *journal {
	return &journal{log: log, seq: lastSeq, counters: counters, degrade: degrade}
}

// maxSeq returns the highest sequence number among records.
func maxSeq(records []Record) int64 {
	var seq int64
	for _, r := range records {
		if r.Seq > seq {
			seq = r.Seq
		}
	}
	return seq
}

// fail latches err as the journal's terminal state and notifies the
// warehouse; the first error wins. failMu is a leaf lock, so fail may
// be called with mu or syncMu held.
func (j *journal) fail(op string, err error) {
	j.failMu.Lock()
	first := j.failed == nil
	if first {
		j.failed = err
	}
	j.failMu.Unlock()
	if first && j.degrade != nil {
		j.degrade(op, err)
	}
}

// failure returns the latched write-path error, if any.
func (j *journal) failure() error {
	j.failMu.Lock()
	defer j.failMu.Unlock()
	return j.failed
}

// append durably writes a record and returns its sequence number. The
// record is buffered under the journal mutex and then made durable by
// syncTo, so concurrent appends batch their fsyncs. Marshal and
// oversize errors reject the record without touching the file — they
// are the caller's problem, not a durability failure. The appended
// byte count is charged to cost (the mutation's request cost, which
// may be nil) alongside the global journal byte counter.
func (j *journal) append(cost *obs.Cost, r Record) (int64, error) {
	if err := j.failure(); err != nil {
		return 0, fmt.Errorf("warehouse: journal failed: %w", err)
	}
	j.mu.Lock()
	seq := j.seq + 1
	r.Seq = seq
	data, err := encodeRecord(r)
	if err != nil {
		j.mu.Unlock()
		return 0, fmt.Errorf("warehouse: marshal journal record: %w", err)
	}
	if len(data) >= maxRecordBytes {
		j.mu.Unlock()
		return 0, fmt.Errorf("warehouse: journal record of %d bytes exceeds the %d limit", len(data), maxRecordBytes)
	}
	if err := j.log.Append(data); err != nil {
		// The appender may now hold a partial record it would glue onto
		// any later append; no further writes may touch the backend.
		j.fail("journal.append", err)
		j.mu.Unlock()
		return 0, fmt.Errorf("warehouse: append journal: %w", err)
	}
	j.seq = seq
	j.written++
	idx := j.written
	j.mu.Unlock()
	if err := j.syncTo(idx); err != nil {
		return 0, err
	}
	j.counters.appends.Add(1)
	if r.Content != "" {
		j.counters.fullState.Add(1)
	}
	obs.Charge(cost, obs.CostJournalBytes, j.counters.bytes, int64(len(data)))
	return seq, nil
}

// syncTo blocks until the idx-th buffered record is durable. The first
// appender through syncMu flushes and fsyncs everything buffered so
// far — one batch — and appenders queued behind it find their record
// already covered. After a flush or fsync failure the journal is dead:
// the kernel may have discarded the dirty pages, so retrying the fsync
// could report success for data that never reached the disk. The
// latched error is returned to every later caller instead.
func (j *journal) syncTo(idx int64) error {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	if err := j.failure(); err != nil {
		return fmt.Errorf("warehouse: journal failed: %w", err)
	}
	if j.synced >= idx {
		return nil
	}
	j.mu.Lock()
	target := j.written
	err := j.log.Flush()
	j.mu.Unlock()
	if err != nil {
		j.fail("journal.flush", err)
		return fmt.Errorf("warehouse: flush journal: %w", err)
	}
	if err := j.log.Sync(); err != nil {
		j.fail("journal.sync", err)
		return fmt.Errorf("warehouse: sync journal: %w", err)
	}
	j.synced = target
	j.counters.batches.Add(1)
	return nil
}

func (j *journal) close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}
