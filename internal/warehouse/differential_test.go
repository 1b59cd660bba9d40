package warehouse_test

// Cross-backend storage differential harness (ISSUE satellite b2): the
// same seeded, deterministic workload — generated by the pxsim op
// generator, driven through the warehouse API — runs against every
// storage backend, and the resulting states must be indistinguishable:
// identical document hashes, view registries and node/event counts
// after a clean close and reopen, after recovery from crash-copy
// snapshots taken mid-run, and after compaction. Any divergence means
// one backend's durability or recovery semantics drifted from the
// storage contract.

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/tpwj"
	"repro/internal/vfs"
	"repro/internal/warehouse"
	"repro/internal/xmlio"
)

// copyDir recursively copies a warehouse directory — the moral
// equivalent of a machine losing power and the disk image being
// examined elsewhere. Every acknowledged operation has been flushed
// and (for the journal) fsynced by the time the copy is taken, so the
// image is a legal crash state.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fingerprint reduces a warehouse's client-visible state to a
// deterministic string: per document (sorted) the sha256 of its XML
// serialization, its node and event counts, and its registered views
// (sorted by name). Two warehouses with equal fingerprints are
// indistinguishable to every read path the server exposes.
func fingerprint(t *testing.T, w *warehouse.Warehouse) string {
	t.Helper()
	names, err := w.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		data, err := w.GetXML(name)
		if err != nil {
			t.Fatalf("GetXML(%q): %v", name, err)
		}
		info, err := w.Stat(name)
		if err != nil {
			t.Fatalf("Stat(%q): %v", name, err)
		}
		fmt.Fprintf(&b, "%s sha256=%x nodes=%d events=%d\n",
			name, sha256.Sum256(data), info.Nodes, info.Events)
		defs, err := w.ListViews(name)
		if err != nil {
			t.Fatalf("ListViews(%q): %v", name, err)
		}
		sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
		for _, d := range defs {
			fmt.Fprintf(&b, "  view %s query=%q syntax=%q\n", d.Name, d.Query, d.Syntax)
		}
	}
	return b.String()
}

// driveOp executes one generated op against the warehouse. Mutations
// must succeed — the run is fault-free, so an error is a backend bug,
// not a legal outcome.
func driveOp(t *testing.T, w *warehouse.Warehouse, op sim.Op) {
	t.Helper()
	switch op.Kind {
	case sim.OpUpdate:
		tx, err := sim.BuildTransaction(op.Update)
		if err != nil {
			t.Fatalf("op %d: build tx: %v", op.Seq, err)
		}
		if _, err := w.Update(op.Doc, tx); err != nil {
			t.Fatalf("op %d: update %s: %v", op.Seq, op.Doc, err)
		}
	case sim.OpRegisterView:
		if _, err := w.RegisterView(op.Doc, op.ViewName, op.Query, ""); err != nil {
			t.Fatalf("op %d: register view %s/%s: %v", op.Seq, op.Doc, op.ViewName, err)
		}
	case sim.OpViewRead:
		if _, err := w.ReadView(op.Doc, op.ViewName); err != nil {
			t.Fatalf("op %d: read view %s/%s: %v", op.Seq, op.Doc, op.ViewName, err)
		}
	case sim.OpQuery:
		if _, err := w.Query(op.Doc, tpwj.MustParseQuery(op.Query)); err != nil {
			t.Fatalf("op %d: query %s: %v", op.Seq, op.Doc, err)
		}
	default: // read / search: state-free document reads
		if _, err := w.GetXML(op.Doc); err != nil {
			t.Fatalf("op %d: read %s: %v", op.Seq, op.Doc, err)
		}
	}
}

// TestStorageDifferential drives the identical seeded op stream into a
// warehouse per backend and compares fingerprints at every
// observation point. The op stream is a pure function of the seed
// (sim.Stream), so the backends see byte-identical inputs.
func TestStorageDifferential(t *testing.T) {
	const (
		tenants, docsPerTenant = 2, 2
		sections, events       = 3, 4
		opsTotal               = 120
		crashEvery             = 40 // crash-copy snapshot cadence
	)
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			docs := sim.DocNames(tenants, docsPerTenant)
			type leg struct {
				backend string
				dir     string
				crashes []string // crash-copy images, one per snapshot point
				clean   string   // fingerprint after clean close + reopen
				compact string   // fingerprint after Compact + reopen
			}
			legs := make([]*leg, len(backends))
			for i, backend := range backends {
				l := &leg{backend: backend, dir: t.TempDir()}
				legs[i] = l
				w, err := warehouse.OpenBackend(l.dir, backend, vfs.OS)
				if err != nil {
					t.Fatal(err)
				}
				for di, name := range docs {
					doc, err := xmlio.ParseDoc([]byte(sim.InitialDocXML(seed, di, sections, events)))
					if err != nil {
						t.Fatal(err)
					}
					if err := w.Create(name, doc); err != nil {
						t.Fatal(err)
					}
				}

				stream := sim.NewStream(seed, docs, sim.DefaultMix(), 1.2, sections)
				for op := 1; op <= opsTotal; op++ {
					driveOp(t, w, stream.Next())
					if op%crashEvery == 0 {
						cp := t.TempDir()
						copyDir(t, l.dir, cp)
						l.crashes = append(l.crashes, cp)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}

				// Clean close + reopen.
				w2, err := warehouse.OpenBackend(l.dir, backend, vfs.OS)
				if err != nil {
					t.Fatal(err)
				}
				if r := w2.Registry().Counter("px_recovery_replays_total", "").Value(); r != 0 {
					t.Errorf("%s: a clean close checkpoints, yet the reopen had to replay %d documents", backend, r)
				}
				l.clean = fingerprint(t, w2)

				// Compact and reopen once more: the state must survive the
				// backend's own journal reset (truncate vs rewrite-rename).
				if err := w2.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := w2.Close(); err != nil {
					t.Fatal(err)
				}
				w3, err := warehouse.OpenBackend(l.dir, backend, vfs.OS)
				if err != nil {
					t.Fatal(err)
				}
				l.compact = fingerprint(t, w3)
				if l.clean != l.compact {
					t.Errorf("%s: compaction changed the visible state", backend)
				}
				w3.Close()
			}

			ref := legs[0]
			for _, l := range legs[1:] {
				if l.clean != ref.clean {
					t.Errorf("clean-close fingerprints diverge:\n%s:\n%s\n%s:\n%s",
						ref.backend, ref.clean, l.backend, l.clean)
				}
				if l.compact != ref.compact {
					t.Errorf("post-compact fingerprints diverge:\n%s:\n%s\n%s:\n%s",
						ref.backend, ref.compact, l.backend, l.compact)
				}
			}

			// Crash-copy recovery: every snapshot index was taken after the
			// same acknowledged op on every backend, so after recovery the
			// images must agree with each other exactly.
			for ci := range legs[0].crashes {
				var prev *leg
				var prevFP string
				for _, l := range legs {
					w, err := warehouse.OpenBackend(l.crashes[ci], l.backend, vfs.OS)
					if err != nil {
						t.Fatalf("%s: crash copy %d: %v", l.backend, ci, err)
					}
					fp := fingerprint(t, w)
					w.Close()
					if prev != nil && fp != prevFP {
						t.Errorf("crash copy %d fingerprints diverge:\n%s:\n%s\n%s:\n%s",
							ci, prev.backend, prevFP, l.backend, fp)
					}
					prev, prevFP = l, fp
				}
			}
		})
	}
}
