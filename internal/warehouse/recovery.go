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
// saved by batching), and how many documents the last recovery had to
// catch up. Served by pxserve under /stats as "journal".
type JournalStats struct {
	// Appends counts records durably appended, cumulative across
	// Compact calls: one per acknowledged mutation or view operation.
	Appends int64 `json:"appends"`
	// SyncBatches counts fsync calls; concurrent appends share
	// batches, so appends/sync_batches is the group-commit factor.
	SyncBatches int64 `json:"sync_batches"`
	// RecoveryReplays counts documents whose stored page recovery
	// rewrote (or removed) to match the journal at Open: the documents
	// mutated since the last checkpoint (Compact or a clean Close).
	RecoveryReplays int64 `json:"recovery_replays"`
}

// JournalStats returns the warehouse's journal counters.
func (w *Warehouse) JournalStats() JournalStats {
	return JournalStats{
		Appends:         w.jc.appends.Value(),
		SyncBatches:     w.jc.batches.Value(),
		RecoveryReplays: w.recoveryReplays.Value(),
	}
}

// recover brings the store and the view registry up to the journal at
// Open. A whole record is a mutation that happened — it was fsynced
// before its caller was acknowledged, or it is the in-flight tail of a
// call nobody acknowledged, which may legally land either way — so
// recovery is replay only: per document, the highest-Seq mutation
// record that no abort marker names is the state, and the stored page
// (a checkpoint, possibly many updates old, possibly torn) is
// rewritten to it unless it already matches; view records apply to the
// registry (seeded from the compaction snapshot) in journal order, a
// drop taking the document's views with it. Recovery appends nothing,
// so it is idempotent and a crash during it changes nothing. Commit
// markers of journals written by earlier versions are ignored: their
// unmarked tail rolls forward like any other whole record.
func (w *Warehouse) recover(records []Record) error {
	aborted := make(map[int64]bool)
	for i := range records {
		switch r := &records[i]; {
		case r.Op == OpAbort:
			aborted[r.RefSeq] = true
		case r.Op == OpCommit, r.Op.Mutation(), r.Op.ViewOp():
		default:
			return fmt.Errorf("warehouse: unknown journal op %q", r.Op)
		}
	}
	last := make(map[string]*Record)
	var order []string
	for i := range records {
		r := &records[i]
		switch {
		case aborted[r.Seq]:
			// The store step failed and the caller was told: no effect.
		case r.Op.Mutation():
			prev := last[r.Doc]
			if prev == nil {
				order = append(order, r.Doc)
			}
			if prev == nil || r.Seq >= prev.Seq {
				last[r.Doc] = r
			}
			if r.Op == OpDrop {
				w.views.delDoc(r.Doc)
			}
		case r.Op == OpViewRegister:
			w.views.set(r.Doc, &viewHandle{def: view.Definition{
				Name: r.View, Query: r.Query, Syntax: r.Syntax,
			}})
		case r.Op == OpViewDrop:
			w.views.del(r.Doc, r.View)
		}
	}
	for _, name := range order {
		changed, err := w.replayCommitted(last[name])
		if err != nil {
			return err
		}
		if changed {
			w.recoveryReplays.Inc()
		}
	}
	return nil
}

// replayCommitted re-applies one mutation record's state to the stored
// document, reporting whether it actually changed. Writes are skipped
// when the stored content already matches, so reopening a checkpointed
// warehouse does no write work.
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
		if err := w.writeDoc(rec.Doc, []byte(rec.Content)); err != nil {
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

// JournalSummary describes a journal file as found on disk, without
// recovering it. Produced by InspectJournal (the pxwarehouse
// verify-journal subcommand).
type JournalSummary struct {
	Records   int `json:"records"`
	Mutations int `json:"mutations"`
	ViewOps   int `json:"view_ops"`
	// Aborted counts mutations and view operations an abort marker
	// names: recorded, then failed in the store, without effect.
	Aborted int `json:"aborted"`
	// LegacyCommits counts commit markers, which only earlier versions
	// wrote and recovery ignores.
	LegacyCommits int   `json:"legacy_commits"`
	LastSeq       int64 `json:"last_seq"`
	// TornTail reports a trailing fragment from a crash mid-append
	// (dropped, then truncated away, by the next open).
	TornTail bool `json:"torn_tail"`
	// Problems lists structural violations no crash can produce —
	// non-increasing sequence numbers, an abort naming no prior
	// mutation, a second abort for one mutation, unknown ops. A journal
	// with problems was corrupted or hand-edited.
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
	aborted := make(map[int64]bool) // seq of every mutation or view op → an abort names it
	for i := range records {
		r := &records[i]
		if r.Seq <= sum.LastSeq {
			sum.Problems = append(sum.Problems,
				fmt.Sprintf("record %d: seq %d not greater than previous %d", i, r.Seq, sum.LastSeq))
		}
		sum.LastSeq = r.Seq
		switch {
		case r.Op.Mutation():
			sum.Mutations++
			aborted[r.Seq] = false
		case r.Op.ViewOp():
			sum.ViewOps++
			aborted[r.Seq] = false
		case r.Op == OpCommit:
			sum.LegacyCommits++
		case r.Op == OpAbort:
			if dup, ok := aborted[r.RefSeq]; !ok {
				sum.Problems = append(sum.Problems,
					fmt.Sprintf("record %d: abort ref %d matches no prior mutation", i, r.RefSeq))
			} else if dup {
				sum.Problems = append(sum.Problems,
					fmt.Sprintf("record %d: duplicate abort for seq %d", i, r.RefSeq))
			} else {
				aborted[r.RefSeq] = true
				sum.Aborted++
			}
		default:
			sum.Problems = append(sum.Problems,
				fmt.Sprintf("record %d: unknown op %q", i, r.Op))
		}
	}
	return sum, nil
}
