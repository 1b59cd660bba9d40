// Package filestore is the file-per-document storage backend: the
// warehouse's original on-disk layout, extracted behind the
// store.Store interface. One directory holds docs/<name>.pxml files
// (atomically replaced via write-temp-then-rename), journal.log (an
// append-only JSON-lines file, one record payload per line), and
// views.json (the compaction snapshot of the view registry).
//
// All I/O goes through vfs.FS under the same area tags the warehouse
// historically used — "journal", "doc", "views", "layout" — so the
// fault-point catalog (docs/FAULTS.md) is unchanged by the extraction.
package filestore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/store"
	"repro/internal/vfs"
)

const (
	docsDir     = "docs"
	docExt      = ".pxml"
	journalFile = "journal.log"
	viewsFile   = "views.json"
)

// Store is the file-per-document backend rooted at dir.
type Store struct {
	dir string
	fs  vfs.FS
}

var _ store.Store = (*Store)(nil)

// New returns a filestore backend rooted at dir, routing all I/O
// through fsys (vfs.OS in production, a vfs.FaultFS in tests).
func New(dir string, fsys vfs.FS) *Store {
	return &Store{dir: dir, fs: fsys}
}

// Backend implements store.Store.
func (s *Store) Backend() string { return "filestore" }

func (s *Store) docPath(name string) string {
	return filepath.Join(s.dir, docsDir, name+docExt)
}

func (s *Store) journalPath() string { return filepath.Join(s.dir, journalFile) }

// syncDir fsyncs a directory, making the entries it holds durable.
func syncDir(fsys vfs.FS, area, path string) error {
	d, err := fsys.OpenFile(area, path, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open implements store.Store: create the layout, scan the journal,
// physically truncate any torn tail (a fresh record appended after a
// partial line would glue onto it, turning the torn write into
// mid-file corruption that costs every later record on the next open),
// open the appender, and make the layout's directory entries durable —
// fsync of journal.log alone does not persist its entry in a freshly
// created warehouse directory, and the journal is the sole durable
// copy of acknowledged mutations until the next compaction.
func (s *Store) Open(valid func([]byte) bool) ([][]byte, store.Log, error) {
	if err := s.fs.MkdirAll("layout", filepath.Join(s.dir, docsDir), 0o755); err != nil {
		return nil, nil, fmt.Errorf("filestore: create layout: %w", err)
	}
	payloads, clean, torn, err := s.scan(valid)
	if err != nil {
		return nil, nil, err
	}
	if torn {
		if err := s.fs.Truncate("journal", s.journalPath(), clean); err != nil {
			return nil, nil, fmt.Errorf("filestore: truncate torn journal tail: %w", err)
		}
	}
	log, err := s.OpenJournal()
	if err != nil {
		return nil, nil, err
	}
	if err := syncDir(s.fs, "layout", filepath.Join(s.dir, docsDir)); err == nil {
		err = syncDir(s.fs, "layout", s.dir)
	}
	if err != nil {
		log.Close() //nolint:errcheck // already failing; the open error wins
		return nil, nil, fmt.Errorf("filestore: sync layout: %w", err)
	}
	return payloads, log, nil
}

// OpenJournal implements store.Store.
func (s *Store) OpenJournal() (store.Log, error) {
	f, err := s.fs.OpenFile("journal", s.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filestore: open journal: %w", err)
	}
	return &fileLog{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// ScanJournal implements store.Store.
func (s *Store) ScanJournal(valid func([]byte) bool) ([][]byte, bool, error) {
	payloads, _, torn, err := s.scan(valid)
	return payloads, torn, err
}

// scan loads all well-formed record payloads and reports the byte
// length of the clean prefix holding them. A trailing fragment — a
// line missing its terminating newline, rejected by valid, or
// impossibly large — is a torn write from a crash mid-append: every
// acknowledged append was fsynced in full, newline included, so a
// malformed tail can only belong to a mutation nobody was told
// succeeded. It is reported (and not counted in clean) rather than
// treated as an error.
func (s *Store) scan(valid func([]byte) bool) (payloads [][]byte, clean int64, torn bool, err error) {
	f, err := s.fs.OpenFile("journal", s.journalPath(), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("filestore: read journal: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only descriptor; nothing buffered to lose
	br := bufio.NewReaderSize(f, 1<<20)
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if err == bufio.ErrBufferFull {
			// Accumulate long lines fragment by fragment, bailing once
			// past the record cap so a newline-free corrupt region can
			// never be slurped into memory whole.
			if len(line) >= store.MaxRecordBytes {
				return payloads, clean, true, nil
			}
			continue
		}
		if err == io.EOF {
			if len(line) > 0 {
				torn = true
			}
			return payloads, clean, torn, nil
		}
		if err != nil {
			return nil, 0, false, fmt.Errorf("filestore: scan journal: %w", err)
		}
		body := bytes.TrimSuffix(line, []byte{'\n'})
		if len(body) == 0 {
			clean += int64(len(line))
			line = line[:0]
			continue
		}
		if len(body) >= store.MaxRecordBytes || !valid(body) {
			return payloads, clean, true, nil
		}
		payloads = append(payloads, append([]byte(nil), body...))
		clean += int64(len(line))
		line = line[:0]
	}
}

// ResetJournal implements store.Store: truncate journal.log in place.
func (s *Store) ResetJournal() error {
	return s.fs.Truncate("journal", s.journalPath(), 0)
}

// ReadDoc implements store.Store.
func (s *Store) ReadDoc(name string) ([]byte, error) {
	return s.fs.ReadFile("doc", s.docPath(name))
}

// WriteDoc implements store.Store: write a temporary file next to the
// target and rename it into place. With sync, the data is fsynced
// before the rename, so a crash can expose the old or the new content
// but never a torn file.
func (s *Store) WriteDoc(name string, data []byte, sync bool) error {
	path := s.docPath(name)
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile("doc", tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		// Cleanup of a tmp file the rename will never see is
		// best-effort: a leftover .tmp is overwritten by the next swap
		// and invisible to readers, while the write error is what the
		// caller must hear.
		f.Close()               //nolint:errcheck // failing path; the write error wins
		s.fs.Remove("doc", tmp) //nolint:errcheck
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()               //nolint:errcheck // failing path; the sync error wins
			s.fs.Remove("doc", tmp) //nolint:errcheck
			return err
		}
	}
	if err := f.Close(); err != nil {
		s.fs.Remove("doc", tmp) //nolint:errcheck
		return err
	}
	return s.fs.Rename("doc", tmp, path)
}

// RemoveDoc implements store.Store.
func (s *Store) RemoveDoc(name string) error {
	return s.fs.Remove("doc", s.docPath(name))
}

// ListDocs implements store.Store.
func (s *Store) ListDocs() ([]string, error) {
	entries, err := s.fs.ReadDir("doc", filepath.Join(s.dir, docsDir))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if n, ok := strings.CutSuffix(e.Name(), docExt); ok && !e.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDocs implements store.Store: fsync every document file and then
// the docs directory (making renames and removals durable).
func (s *Store) SyncDocs() error {
	dir := filepath.Join(s.dir, docsDir)
	entries, err := s.fs.ReadDir("doc", dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), docExt) || e.IsDir() {
			continue
		}
		f, err := s.fs.OpenFile("doc", filepath.Join(dir, e.Name()), os.O_RDONLY, 0)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return syncDir(s.fs, "doc", dir)
}

// ReadViews implements store.Store.
func (s *Store) ReadViews() ([]byte, bool, error) {
	data, err := s.fs.ReadFile("views", filepath.Join(s.dir, viewsFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// WriteViews implements store.Store: fsynced write-temp-then-rename,
// then an fsync of the root directory so the rename itself is durable.
func (s *Store) WriteViews(data []byte) error {
	path := filepath.Join(s.dir, viewsFile)
	tmp := path + ".tmp"
	f, err := s.fs.OpenFile("views", tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// Plain assignment, not :=, so a write or sync failure survives into
	// the error accounting below — a shadowed err here once let a torn
	// snapshot get renamed over views.json.
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Best-effort cleanup: the tmp file is invisible to loads and
		// overwritten by the next snapshot; the write/sync/close error
		// is what the caller must hear.
		s.fs.Remove("views", tmp) //nolint:errcheck
		return err
	}
	if err := s.fs.Rename("views", tmp, path); err != nil {
		return err
	}
	return syncDir(s.fs, "views", s.dir)
}

// Stats implements store.Store.
func (s *Store) Stats() (store.Stats, error) {
	st := store.Stats{Backend: s.Backend()}
	names, err := s.ListDocs()
	if err != nil {
		return st, err
	}
	st.Docs = len(names)
	for _, n := range names {
		fi, err := s.fs.Stat("doc", s.docPath(n))
		if err != nil {
			return st, err
		}
		st.Bytes += fi.Size()
	}
	for _, p := range []struct{ area, path string }{
		{"journal", s.journalPath()},
		{"views", filepath.Join(s.dir, viewsFile)},
	} {
		fi, err := s.fs.Stat(p.area, p.path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return st, err
		}
		st.Bytes += fi.Size()
	}
	// Every on-disk byte is live: superseded content is gone the moment
	// its file is renamed over.
	st.LiveBytes = st.Bytes
	return st, nil
}

// Close implements store.Store. The filestore holds no long-lived
// handles of its own (the journal appender is owned by its Log).
func (s *Store) Close() error { return nil }

// fileLog is the journal appender: a buffered writer over the
// O_APPEND journal.log handle. Framing is one payload per line.
type fileLog struct {
	f vfs.File
	w *bufio.Writer
}

func (l *fileLog) Append(p []byte) error {
	if _, err := l.w.Write(p); err != nil {
		return err
	}
	return l.w.WriteByte('\n')
}

func (l *fileLog) Flush() error { return l.w.Flush() }

func (l *fileLog) Sync() error { return l.f.Sync() }

func (l *fileLog) Close() error {
	err := l.w.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
