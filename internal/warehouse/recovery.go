package warehouse

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"slices"

	"repro/internal/event"
	"repro/internal/fuzzy"
	"repro/internal/tpwj"
	"repro/internal/update"
	"repro/internal/vfs"
	"repro/internal/view"
	"repro/internal/xmlio"
	"repro/internal/xupdate"
)

// simplifyTx is the Tx of a Simplify's update record.
const simplifyTx = "<simplify/>"

// txOnly reports whether r is an update record without a full state,
// which recovery re-applies to its document's last full state.
func (r *Record) txOnly() bool { return r.Op == OpUpdate && r.Content == "" }

// docHistory is what recovery needs of one document: its last
// full-state record or drop in the journal (base), the Tx-only update
// records after it, in journal order, and its views, sorted by name.
type docHistory struct {
	base  *Record
	tail  []*Record
	views []*viewHandle
}

// histories groups by document, in order of first mention, the view
// definitions of the compaction snapshot (seed) and the mutation and
// view records no abort names. The views are the seed's with the
// journal's view records applied in journal order, a create or a drop
// resetting them: a document starts with no views, so any before its
// create belong to no document that exists. A Tx-only record with no
// full state of its document before it — none at all, or none since a
// drop — has nothing to replay onto; it goes to orphans, which no
// crash can produce.
func histories(seed map[string][]view.Definition, records []Record, aborted map[int64]bool) (docs map[string]*docHistory, order []string, orphans []*Record) {
	docs = make(map[string]*docHistory)
	history := func(doc string) *docHistory {
		d := docs[doc]
		if d == nil {
			d = &docHistory{}
			docs[doc] = d
			order = append(order, doc)
		}
		return d
	}
	for _, doc := range slices.Sorted(maps.Keys(seed)) {
		d := history(doc)
		for _, def := range seed[doc] {
			d.views = withView(d.views, &viewHandle{def: def})
		}
	}
	for i := range records {
		r := &records[i]
		if aborted[r.Seq] || !r.Op.Mutation() && !r.Op.ViewOp() {
			continue
		}
		d := history(r.Doc)
		switch {
		case r.Op == OpViewRegister:
			d.views = withView(d.views, &viewHandle{def: view.Definition{
				Name: r.View, Query: r.Query, Syntax: r.Syntax,
			}})
		case r.Op == OpViewDrop:
			d.views = withoutView(d.views, r.View)
		case !r.txOnly():
			d.base, d.tail = r, nil
			if r.Op != OpUpdate {
				d.views = nil // a new document, or none
			}
		case d.base == nil || d.base.Op == OpDrop:
			orphans = append(orphans, r)
		default:
			d.tail = append(d.tail, r)
		}
	}
	return docs, order, orphans
}

// recover brings the store up to the journal at Open and returns each
// document's history, whose views Open attaches to the table. A whole
// record is a mutation that happened — it was fsynced before its
// caller was acknowledged, or it is the in-flight tail of a call
// nobody acknowledged, which may legally land either way — so recovery
// is replay only. Per document, the last record that carries
// a full state (or drops the document) is the base, the Tx-only update
// records after it are re-applied to it (replayTail), and the stored
// page (a checkpoint, possibly many updates old, possibly torn or
// missing — never a replay base) is rewritten to the result unless it
// already matches; a dropped document's page is removed. View records
// apply to the views of the compaction snapshot (seed) in journal
// order, a create or a drop resetting the document's views. Recovery
// appends nothing, so it is idempotent and a crash during it changes
// nothing. The markers of journals written by earlier versions are
// honoured: a commit marker is ignored, its unmarked tail rolling
// forward like any other whole record, and a record an abort marker
// names is without effect (see OpAbort).
func (w *Warehouse) recover(seed map[string][]view.Definition, records []Record) (map[string]*docHistory, error) {
	aborted := make(map[int64]bool)
	for i := range records {
		switch r := &records[i]; {
		case r.Op == OpAbort:
			aborted[r.RefSeq] = true
		case r.Op == OpCommit, r.Op.Mutation(), r.Op.ViewOp():
		default:
			return nil, fmt.Errorf("warehouse: unknown journal op %q", r.Op)
		}
	}
	docs, order, orphans := histories(seed, records, aborted)
	if len(orphans) > 0 {
		r := orphans[0]
		return nil, fmt.Errorf("warehouse: journal record seq %d updates %q without a full state of it before", r.Seq, r.Doc)
	}
	for _, name := range order {
		d := docs[name]
		if d.base == nil {
			continue // views only: the page is current
		}
		changed, err := w.replayDoc(name, d)
		if err != nil {
			return nil, err
		}
		if changed {
			w.recoveryReplays.Inc()
		}
	}
	return docs, nil
}

// replayDoc brings one document's stored page to its journaled state,
// reporting whether the page changed. Writes are skipped when the
// stored content already matches, so reopening a checkpointed
// warehouse writes nothing — though it still re-applies every Tx-only
// record to find that out.
func (w *Warehouse) replayDoc(name string, d *docHistory) (changed bool, err error) {
	if d.base.Op == OpDrop {
		err := w.st.RemoveDoc(name)
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("warehouse: recovery drop of %q: %w", name, err)
		}
		return true, nil
	}
	want := []byte(d.base.Content)
	if len(d.tail) > 0 {
		if want, err = replayTail(d.base, d.tail); err != nil {
			return false, err
		}
		w.recoveryTxReplayed.Add(int64(len(d.tail)))
	}
	cur, err := w.st.ReadDoc(name)
	if err == nil && bytes.Equal(cur, want) {
		return false, nil
	}
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return false, fmt.Errorf("warehouse: recovery of %q: %w", name, err)
	}
	if err := w.writeDoc(name, want); err != nil {
		return false, fmt.Errorf("warehouse: recovery of %q: %w", name, err)
	}
	return true, nil
}

// replayTail re-applies a document's Tx-only records, in journal order,
// to the full state its base record carries, and returns the result
// serialized. The base is parsed once. A replay that does not land
// where the live update did — a different minted event, a different
// node count — fails Open with the record's seq rather than serve a
// silently different tree.
func replayTail(base *Record, tail []*Record) ([]byte, error) {
	ft, err := xmlio.ParseDoc([]byte(base.Content))
	if err != nil {
		return nil, fmt.Errorf("warehouse: recovery of %q: full state at seq %d: %w", base.Doc, base.Seq, err)
	}
	for _, r := range tail {
		if ft, err = replayRecord(ft, r); err != nil {
			return nil, fmt.Errorf("warehouse: recovery of %q: replay of seq %d: %w", r.Doc, r.Seq, err)
		}
	}
	return xmlio.DocXML(ft)
}

// replayRecord applies one Tx-only update record to ft the way the
// live update did: a simplification clones and simplifies, and a
// transaction mints exactly the event the record names. The pin is
// what makes replay exact — a live table mints from a counter no
// stored document carries, so a table parsed from a full state would
// mint a different id once Simplify has dropped an earlier one.
func replayRecord(ft *fuzzy.Tree, r *Record) (*fuzzy.Tree, error) {
	var next *fuzzy.Tree
	if r.Tx == simplifyTx {
		next = ft.Clone()
		next.Simplify()
	} else {
		tx, err := xupdate.ParseTransaction([]byte(r.Tx))
		if err != nil {
			return nil, err
		}
		tx.ConfEvent = event.ID(r.Event)
		if err := tx.Validate(); err != nil {
			return nil, err
		}
		// ft is valid: the base passed ParseDoc's validation, and each
		// successor is valid by construction (update.ApplyFlat).
		var stats *update.FuzzyStats
		if next, _, stats, err = tx.ApplyFlat(tpwj.FlattenFuzzy(ft)); err != nil {
			return nil, err
		}
		if string(stats.Event) != r.Event {
			return nil, fmt.Errorf("minted event %q, the record says %q", stats.Event, r.Event)
		}
	}
	if n := next.Size(); n != r.Nodes {
		return nil, fmt.Errorf("post-state has %d nodes, the record says %d", n, r.Nodes)
	}
	return next, nil
}

// JournalSummary describes a journal file as found on disk, without
// recovering it. Produced by InspectJournal (the pxwarehouse
// verify-journal subcommand).
type JournalSummary struct {
	Records   int `json:"records"`
	Mutations int `json:"mutations"`
	// FullState counts the mutation records that carry a full document
	// state (creates and full-state updates), TxOnly the update records
	// that carry only their transaction; the rest of the mutations are
	// drops.
	FullState int `json:"full_state"`
	TxOnly    int `json:"tx_only"`
	ViewOps   int `json:"view_ops"`
	// Aborted counts mutations and view operations a legacy abort
	// marker names: recorded, then failed in the store, without effect.
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
	// mutation, a second abort for one mutation, unknown ops, a Tx-only
	// update with no full state of its document before it (since its
	// last drop). A journal with problems was corrupted or hand-edited.
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
	records, torn, err := scanRecords(st)
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
			if r.Content != "" {
				sum.FullState++
			} else if r.txOnly() {
				sum.TxOnly++
			}
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
	_, _, orphans := histories(nil, records, aborted)
	for _, r := range orphans {
		sum.Problems = append(sum.Problems,
			fmt.Sprintf("seq %d: Tx-only update of %q with no full state of it before", r.Seq, r.Doc))
	}
	return sum, nil
}
