package warehouse

import (
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/vfs"
	"repro/internal/view"
)

// JournalStats reports journal activity counters: durable appends,
// group-commit fsync batches (batches ≤ appends; the gap is fsyncs
// saved by batching), and the outcomes of the last recovery scan.
// Served by pxserve under /stats as "journal".
type JournalStats struct {
	// Appends counts records durably appended, cumulative across
	// Compact calls.
	Appends int64 `json:"appends"`
	// SyncBatches counts fsync calls; concurrent appends share
	// batches, so appends/sync_batches is the group-commit factor.
	SyncBatches int64 `json:"sync_batches"`
	// RecoveryReplays counts documents whose on-disk file recovery
	// rewrote (or removed) to match the journal's last committed
	// mutation at Open.
	RecoveryReplays int64 `json:"recovery_replays"`
	// RecoveryRollbacks counts in-flight (unmarked) mutations recovery
	// resolved with an abort marker.
	RecoveryRollbacks int64 `json:"recovery_rollbacks"`
	// RecoveryRollforwards counts in-flight mutations recovery
	// resolved with a commit marker because the on-disk evidence shows
	// the apply completed and the pre-state predates the journal.
	RecoveryRollforwards int64 `json:"recovery_rollforwards"`
}

// JournalStats returns the warehouse's journal counters.
func (w *Warehouse) JournalStats() JournalStats {
	return JournalStats{
		Appends:              w.jc.appends.Value(),
		SyncBatches:          w.jc.batches.Value(),
		RecoveryReplays:      w.recoveryReplays.Value(),
		RecoveryRollbacks:    w.recoveryRollbacks.Value(),
		RecoveryRollforwards: w.recoveryRollforwards.Value(),
	}
}

// recover applies scan-based journal recovery at Open. The whole
// journal is scanned, pairing every mutation record with its marker by
// Seq/RefSeq; then, per document:
//
//   - The last committed mutation's state is re-applied to the
//     document file (idempotently: the file is rewritten only if it
//     differs). This both repairs a crash between a commit marker's
//     buffering and its fsync and undoes the file effect of any
//     in-flight mutation that swapped the file before crashing.
//
//   - Every unmarked (in-flight) mutation is rolled back with an abort
//     marker: its caller was never acknowledged, so it never happened.
//     The one exception is a document whose only journal trace is the
//     in-flight mutation itself (its committed state predates the
//     journal, truncated away by Compact): there the pre-state content
//     is unrecoverable, so recovery decides by on-disk evidence — if
//     the file already holds the journaled post-state the apply
//     completed and the mutation is rolled forward with a commit
//     marker; otherwise the untouched file is the pre-state and the
//     mutation is rolled back. Either outcome is legal for an
//     unacknowledged call.
//
// Recovery is idempotent: markers are appended only after the file
// work, so a crash during recovery re-derives the same plan.
func (w *Warehouse) recover(records []Record) error {
	if len(records) == 0 {
		return nil
	}

	// Pass 1: resolve markers. A marker without a RefSeq is malformed
	// and resolves nothing: the mutation it was meant for stays
	// in-flight and is rolled back below.
	marked := make(map[int64]Op)
	for i := range records {
		r := &records[i]
		switch {
		case r.Op.Mutation(), r.Op.ViewOp():
		case r.Op.Marker():
			if _, dup := marked[r.RefSeq]; r.RefSeq != 0 && !dup {
				marked[r.RefSeq] = r.Op
			}
		default:
			return fmt.Errorf("warehouse: unknown journal op %q", r.Op)
		}
	}

	// Pass 2: fold per-document state — the highest-Seq committed
	// mutation and the in-flight (unmarked) ones.
	type docState struct {
		committed *Record
		pending   []*Record
	}
	states := make(map[string]*docState)
	var order []string
	for i := range records {
		r := &records[i]
		if !r.Op.Mutation() {
			continue
		}
		ds := states[r.Doc]
		if ds == nil {
			ds = &docState{}
			states[r.Doc] = ds
			order = append(order, r.Doc)
		}
		switch marked[r.Seq] {
		case OpCommit:
			if ds.committed == nil || r.Seq >= ds.committed.Seq {
				ds.committed = r
			}
		case OpAbort:
			// Took no effect; nothing to restore.
		default:
			ds.pending = append(ds.pending, r)
		}
	}

	// Pass 3: act.
	for _, name := range order {
		ds := states[name]
		if ds.committed != nil {
			// The journal holds this document's committed content, so
			// its next file swaps may defer their fsync to it.
			w.markJournaled(name)
			changed, err := w.replayCommitted(ds.committed)
			if err != nil {
				return err
			}
			if changed {
				w.recoveryReplays.Inc()
			}
			for _, p := range ds.pending {
				if _, err := w.journal.append(Record{Op: OpAbort, RefSeq: p.Seq}); err != nil {
					return err
				}
				w.recoveryRollbacks.Inc()
			}
			continue
		}
		// No committed record for this document: its committed state
		// predates the journal. At most the last in-flight mutation
		// can have touched the file; earlier ones (impossible in a
		// well-formed journal, tolerated defensively) are aborted
		// without file work.
		for i, p := range ds.pending {
			if i < len(ds.pending)-1 {
				if _, err := w.journal.append(Record{Op: OpAbort, RefSeq: p.Seq}); err != nil {
					return err
				}
				w.recoveryRollbacks.Inc()
				continue
			}
			resolve := OpAbort
			switch p.Op {
			case OpCreate:
				// The pre-state is "absent" (Create verifies that
				// under the writers lock), so rollback is always
				// possible: remove whatever the in-flight create may
				// have installed.
				if err := w.st.RemoveDoc(p.Doc); err != nil && !errors.Is(err, fs.ErrNotExist) {
					return fmt.Errorf("warehouse: recovery rollback of create %q: %w", p.Doc, err)
				}
				w.recoveryRollbacks.Inc()
			case OpUpdate:
				cur, err := w.st.ReadDoc(p.Doc)
				if err != nil && !errors.Is(err, fs.ErrNotExist) {
					return fmt.Errorf("warehouse: recovery of %q: %w", p.Doc, err)
				}
				if err == nil && string(cur) == p.Content {
					resolve = OpCommit
					w.recoveryRollforwards.Inc()
				} else {
					w.recoveryRollbacks.Inc()
				}
			case OpDrop:
				if exists, err := w.st.DocExists(p.Doc); err != nil {
					return fmt.Errorf("warehouse: recovery of %q: %w", p.Doc, err)
				} else if !exists {
					resolve = OpCommit
					w.recoveryRollforwards.Inc()
				} else {
					w.recoveryRollbacks.Inc()
				}
			}
			if _, err := w.journal.append(Record{Op: resolve, RefSeq: p.Seq}); err != nil {
				return err
			}
			if resolve == OpCommit {
				// Rolled forward: the journal now pairs this record
				// with a commit, making it the document's authority.
				w.markJournaled(p.Doc)
			}
		}
	}

	// Pass 4: replay the committed view operations over the registry
	// (seeded from views.json by Open) in journal order — a committed
	// document drop takes the document's views with it — and roll back
	// in-flight view operations, whose callers were never acknowledged.
	for i := range records {
		r := &records[i]
		switch {
		case r.Op == OpViewRegister && marked[r.Seq] == OpCommit:
			w.views.set(r.Doc, &viewHandle{def: view.Definition{
				Name: r.View, Query: r.Query, Syntax: r.Syntax,
			}})
		case r.Op == OpViewDrop && marked[r.Seq] == OpCommit:
			w.views.del(r.Doc, r.View)
		case r.Op == OpDrop && marked[r.Seq] == OpCommit:
			w.views.delDoc(r.Doc)
		case r.Op.ViewOp() && !marked[r.Seq].Marker():
			if _, err := w.journal.append(Record{Op: OpAbort, RefSeq: r.Seq}); err != nil {
				return err
			}
			w.recoveryRollbacks.Inc()
		}
	}
	return nil
}

// replayCommitted re-applies one committed mutation's state to the
// stored document, reporting whether it actually changed. Writes are
// skipped when the stored content already matches, so reopening a
// quiescent warehouse does no write work.
func (w *Warehouse) replayCommitted(rec *Record) (changed bool, err error) {
	switch rec.Op {
	case OpCreate, OpUpdate:
		cur, err := w.st.ReadDoc(rec.Doc)
		if err == nil && string(cur) == rec.Content {
			return false, nil
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return false, fmt.Errorf("warehouse: recovery of %q: %w", rec.Doc, err)
		}
		// No fsync: the journal keeps the committed record, so a crash
		// that tears this write is repaired by the next recovery.
		if err := w.writeDoc(rec.Doc, []byte(rec.Content), false); err != nil {
			return false, fmt.Errorf("warehouse: recovery of %q: %w", rec.Doc, err)
		}
		return true, nil
	case OpDrop:
		err := w.st.RemoveDoc(rec.Doc)
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("warehouse: recovery drop of %q: %w", rec.Doc, err)
		}
		return true, nil
	}
	return false, fmt.Errorf("warehouse: unknown journal op %q", rec.Op)
}

// PendingMutation identifies a journaled mutation or view operation
// with no commit/abort marker — in-flight at crash time. Opening the
// warehouse resolves it.
type PendingMutation struct {
	Seq int64  `json:"seq"`
	Op  Op     `json:"op"`
	Doc string `json:"doc"`
	// View names the view concerned (view operations only).
	View string `json:"view,omitempty"`
}

// JournalSummary describes a journal file as found on disk, without
// recovering it. Produced by InspectJournal (the pxwarehouse
// verify-journal subcommand).
type JournalSummary struct {
	Records   int   `json:"records"`
	Mutations int   `json:"mutations"`
	ViewOps   int   `json:"view_ops"`
	Committed int   `json:"committed"`
	Aborted   int   `json:"aborted"`
	LastSeq   int64 `json:"last_seq"`
	// TornTail reports a trailing fragment from a crash mid-append
	// (dropped, then truncated away, by the next open).
	TornTail bool `json:"torn_tail"`
	// Pending lists mutations with no marker, oldest first.
	Pending []PendingMutation `json:"pending,omitempty"`
	// Problems lists structural violations no crash can produce —
	// non-increasing sequence numbers, markers naming no prior
	// mutation, duplicate markers, unknown ops. A journal with
	// problems was corrupted or hand-edited.
	Problems []string `json:"problems,omitempty"`
}

// InspectJournal reads the journal of the warehouse directory dir and
// summarizes it without applying recovery or taking any lock. It is
// safe on a warehouse that was not cleanly closed — that is its point:
// it shows what recovery will find before anything opens the
// warehouse. The directory's backend is auto-detected; use
// InspectJournalBackend to name it explicitly.
func InspectJournal(dir string) (JournalSummary, error) {
	return InspectJournalBackend(dir, BackendAuto)
}

// InspectJournalBackend is InspectJournal with an explicit storage
// backend name (BackendFile, BackendKV, BackendAuto).
func InspectJournalBackend(dir, backend string) (JournalSummary, error) {
	st, err := newBackendStore(dir, backend, vfs.OS)
	if err != nil {
		return JournalSummary{}, err
	}
	payloads, torn, err := st.ScanJournal(validRecord)
	if err != nil {
		return JournalSummary{}, err
	}
	records, err := parseRecords(payloads)
	if err != nil {
		return JournalSummary{}, err
	}
	sum := JournalSummary{Records: len(records), TornTail: torn}
	marked := make(map[int64]Op)
	mutations := make(map[int64]*Record)
	var mutationOrder []int64
	var lastSeq int64
	for i := range records {
		r := &records[i]
		if r.Seq <= lastSeq {
			sum.Problems = append(sum.Problems,
				fmt.Sprintf("record %d: seq %d not greater than previous %d", i, r.Seq, lastSeq))
		}
		lastSeq = r.Seq
		switch {
		case r.Op.Mutation():
			sum.Mutations++
			mutations[r.Seq] = r
			mutationOrder = append(mutationOrder, r.Seq)
		case r.Op.ViewOp():
			sum.ViewOps++
			mutations[r.Seq] = r
			mutationOrder = append(mutationOrder, r.Seq)
		case r.Op.Marker():
			ref := r.RefSeq
			if _, ok := mutations[ref]; !ok {
				sum.Problems = append(sum.Problems,
					fmt.Sprintf("record %d: %s marker ref %d matches no prior mutation", i, r.Op, r.RefSeq))
				continue
			}
			if prev, dup := marked[ref]; dup {
				sum.Problems = append(sum.Problems,
					fmt.Sprintf("record %d: duplicate marker for seq %d (already %s)", i, ref, prev))
				continue
			}
			marked[ref] = r.Op
		default:
			sum.Problems = append(sum.Problems,
				fmt.Sprintf("record %d: unknown op %q", i, r.Op))
		}
	}
	sum.LastSeq = lastSeq
	for _, seq := range mutationOrder {
		switch marked[seq] {
		case OpCommit:
			sum.Committed++
		case OpAbort:
			sum.Aborted++
		default:
			m := mutations[seq]
			sum.Pending = append(sum.Pending, PendingMutation{Seq: m.Seq, Op: m.Op, Doc: m.Doc, View: m.View})
		}
	}
	return sum, nil
}
