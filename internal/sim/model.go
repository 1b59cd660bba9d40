package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/fuzzy"
	"repro/internal/update"
	"repro/internal/xmlio"
)

// docModel is the expected state of one document. It is owned by the
// worker the document is partitioned to, so no locking is needed:
// every operation on the document flows through exactly one goroutine,
// which keeps the shadow tree in lockstep with the server's.
type docModel struct {
	name string

	// tree is the shadow fuzzy tree: the state the document must have
	// if every acknowledged update was applied and every failed update
	// was rolled back.
	tree *fuzzy.Tree

	// alt is the alternative tail state left by a failed write whose
	// server-side fate is ambiguous (see noteWriteFailure): the tree as
	// it would be had the failed transaction actually been applied. nil
	// when the document's state is unambiguous.
	alt *fuzzy.Tree

	// altOp describes the operation that created the ambiguity, for
	// discrepancy messages.
	altOp string

	// views maps confirmed registered view names to their query text.
	// maybeViews holds registrations whose acknowledgement was lost the
	// same way alt captures lost update acknowledgements.
	views      map[string]string
	maybeViews map[string]string

	// counts tallies executed operations by kind (attempts, including
	// failures); writes / failedWrites split the update+register
	// subset. lastWriteHash is the content hash after the last
	// acknowledged update.
	counts        map[OpKind]int64
	writes        int64
	failedWrites  int64
	lastWriteHash string
}

func newDocModel(name string, ft *fuzzy.Tree) *docModel {
	return &docModel{
		name:       name,
		tree:       ft,
		views:      make(map[string]string),
		maybeViews: make(map[string]string),
		counts:     make(map[OpKind]int64),
	}
}

// hashTree is the canonical content hash: sha256 over the document
// XML serialization, which is deterministic (see xmlio's
// TestWriteDocDeterministic) and exactly what GET /docs/{name}
// returns.
func hashTree(ft *fuzzy.Tree) string {
	data, err := xmlio.DocXML(ft)
	if err != nil {
		return "encode-error:" + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// applyUpdate applies the transaction to the shadow tree and returns
// the resulting stats for comparison against the server's response.
// Called only after the server acknowledged the update, so shadow and
// server advance together.
func (d *docModel) applyUpdate(tx *update.Transaction) (*update.FuzzyStats, error) {
	next, stats, err := tx.ApplyFuzzy(d.tree)
	if err != nil {
		return nil, err
	}
	d.tree = next
	d.alt = nil // an acknowledged write proves the previous tail resolved
	d.altOp = ""
	d.writes++
	d.lastWriteHash = hashTree(next)
	return stats, nil
}

// noteWriteFailure records a failed update. When the failure is an
// upfront rejection (the server refused before applying: degraded
// mode, validation), the shadow is untouched. Otherwise the failure
// may be the journal's own: the live process keeps serving the
// pre-state, but the record may have reached the disk whole, in which
// case the next recovery keeps the mutation — so both outcomes are
// acceptable until a later acknowledged write disambiguates: the
// not-applied state stays in d.tree, the applied state goes to d.alt.
func (d *docModel) noteWriteFailure(tx *update.Transaction, seq int64, upfront bool) {
	d.failedWrites++
	if upfront {
		return
	}
	if next, _, err := tx.ApplyFuzzy(d.tree); err == nil {
		d.alt = next
		d.altOp = fmt.Sprintf("op %d", seq)
	}
}

// resolve returns the tree matching the observed content hash, along
// with whether the ambiguous tail (if any) turned out applied. The
// bool ok reports whether the hash matched either acceptable state.
func (d *docModel) resolve(observedHash string) (ft *fuzzy.Tree, appliedTail, ok bool) {
	if observedHash == hashTree(d.tree) {
		return d.tree, false, true
	}
	if d.alt != nil && observedHash == hashTree(d.alt) {
		return d.alt, true, true
	}
	return nil, false, false
}

// noteRegister records a view registration outcome, mirroring
// noteWriteFailure's ambiguity rule (registration does not change
// document content, so only the view set is tracked).
func (d *docModel) noteRegister(name, query string, ok, upfront bool) {
	if ok {
		d.views[name] = query
		delete(d.maybeViews, name)
		return
	}
	d.failedWrites++
	if !upfront {
		d.maybeViews[name] = query
	}
}

// Model is the whole expected-state model: one docModel per document,
// in generation order.
type Model struct {
	docs  map[string]*docModel
	order []string
}

func newModel() *Model {
	return &Model{docs: make(map[string]*docModel)}
}

func (m *Model) add(d *docModel) {
	m.docs[d.name] = d
	m.order = append(m.order, d.name)
}

// Fingerprint digests the model into one hex string: per document (in
// creation order) the op counts, content hash, last-write hash, and
// sorted view registrations. Two equal-seed fault-free runs must
// produce equal fingerprints — the determinism test pins exactly that.
func (m *Model) Fingerprint() string {
	h := sha256.New()
	for _, name := range m.order {
		d := m.docs[name]
		fmt.Fprintf(h, "doc %s\n", name)
		for _, k := range sortedKinds(d.counts) {
			fmt.Fprintf(h, "  count %s %d\n", k, d.counts[k])
		}
		fmt.Fprintf(h, "  writes %d failed %d\n", d.writes, d.failedWrites)
		fmt.Fprintf(h, "  hash %s\n", hashTree(d.tree))
		if d.lastWriteHash != "" {
			fmt.Fprintf(h, "  last-write %s\n", d.lastWriteHash)
		}
		views := make([]string, 0, len(d.views))
		for v, q := range d.views {
			views = append(views, v+"="+q)
		}
		sort.Strings(views)
		fmt.Fprintf(h, "  views %s\n", strings.Join(views, ","))
	}
	return hex.EncodeToString(h.Sum(nil))
}
