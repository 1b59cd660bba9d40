// Package kv is the embedded key-value storage backend: one
// append-only page file (kv.store) holding every durable byte of a
// warehouse as Seq-tagged, CRC-framed records — journal payloads as an
// append region, documents and the view-registry snapshot as keyed
// pages. It is the bitcask-style counterpart to the file-per-document
// filestore backend; both implement store.Store and must be
// indistinguishable through it (the cross-backend differential suite
// in internal/warehouse enforces that).
//
// # File format
//
// The file is a sequence of frames:
//
//	kind(1) keyLen(2, BE) valLen(4, BE) seq(8, BE) key val crc32(4, BE)
//
// kind is journal (1), doc page (2), doc tombstone (3) or views page
// (4); seq increases monotonically across all frames; the CRC (IEEE)
// covers header, key and value. Opening scans the file once, building
// an in-memory index of the newest page per key and collecting the
// journal payloads; a frame that is incomplete, fails its CRC, or
// carries an invalid journal payload is a torn tail from a crash
// mid-append — everything from its start is truncated away, exactly
// the torn-line rule of the filestore journal. Reads serve pages with
// positioned reads (ReadAt); writes append through one shared buffered
// appender, so the file order of journal records, pages and markers is
// the order the warehouse wrote them, which is what makes the
// write-ahead contract hold within a single file.
//
// Compaction (ResetJournal) rewrites the live pages — documents and
// the views snapshot, not journal frames — into a fresh file, fsyncs
// it, and renames it into place.
//
// A failed append-path operation (write, flush, fsync) latches the
// store: the buffer may hold a partial frame that later appends would
// glue onto, so every later write returns the first error until Open
// re-reads the disk. This is stricter than the filestore, whose
// document writes fail independently of its journal; the warehouse
// surfaces the difference as degraded mode either way. All I/O goes
// through vfs.FS under area "kv" (plus "layout" for the directory),
// giving the fault sweep points kv.open, kv.read, kv.readat, kv.write,
// kv.sync, kv.close, kv.rename and kv.truncate.
package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/store"
	"repro/internal/vfs"
)

// FileName is the page file's name inside the warehouse directory. Its
// presence is how backend auto-detection recognizes a kv warehouse.
const FileName = "kv.store"

const (
	kindJournal = 1 // journal record payload
	kindDoc     = 2 // document page (key = name, val = content)
	kindDocTomb = 3 // document tombstone (key = name)
	kindViews   = 4 // view-registry snapshot page
)

const (
	headerLen  = 15 // kind + keyLen + valLen + seq
	trailerLen = 4  // crc32
)

// span locates one value inside the page file.
type span struct {
	off int64
	n   int
}

// Store is the kv backend rooted at dir.
type Store struct {
	dir string
	fs  vfs.FS

	// mu guards everything below. Appends hold it for the in-memory
	// buffering and the write-through flush; positioned reads copy the
	// span and handle out and read outside it.
	mu       sync.Mutex
	rf       vfs.File // read handle (ReadAt)
	wf       vfs.File // write handle (O_APPEND)
	w        *bufio.Writer
	size     int64 // logical end offset, buffered bytes included
	seq      uint64
	docs     map[string]span
	views    span
	hasViews bool
	failed   error
}

// New returns a kv backend rooted at dir, routing all I/O through fsys.
func New(dir string, fsys vfs.FS) *Store {
	return &Store{dir: dir, fs: fsys}
}

var _ store.Store = (*Store)(nil)

// Backend implements store.Store.
func (s *Store) Backend() string { return "kv" }

func (s *Store) path() string { return filepath.Join(s.dir, FileName) }

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

// encodeFrame renders one frame. The caller bounds len(key) (document
// names) and len(val) (store.MaxRecordBytes).
func encodeFrame(kind byte, seq uint64, key string, val []byte) []byte {
	buf := make([]byte, 0, headerLen+len(key)+len(val)+trailerLen)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(key)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(val)))
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = append(buf, key...)
	buf = append(buf, val...)
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// scanResult is one pass over the file: the journal payloads in append
// order, the newest page per key, the clean byte prefix, and the
// highest frame seq.
type scanResult struct {
	payloads [][]byte
	docs     map[string]span
	views    span
	hasViews bool
	clean    int64
	seq      uint64
	torn     bool
}

// scanFrames reads frames until the end of the file or the first frame
// that cannot have been written whole — short, CRC-mismatched, of
// unknown kind, oversized, or holding a journal payload valid rejects.
// Everything from that frame's start is a torn tail.
func scanFrames(br *bufio.Reader, valid func([]byte) bool) (scanResult, error) {
	res := scanResult{docs: make(map[string]span)}
	var off int64
	hdr := make([]byte, headerLen)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				res.clean = off
				return res, nil
			}
			if err == io.ErrUnexpectedEOF {
				res.torn, res.clean = true, off
				return res, nil
			}
			return res, fmt.Errorf("kv: scan: %w", err)
		}
		kind := hdr[0]
		keyLen := int(binary.BigEndian.Uint16(hdr[1:3]))
		valLen := int64(binary.BigEndian.Uint32(hdr[3:7]))
		seq := binary.BigEndian.Uint64(hdr[7:15])
		if kind < kindJournal || kind > kindViews || valLen >= store.MaxRecordBytes {
			res.torn, res.clean = true, off
			return res, nil
		}
		body := make([]byte, keyLen+int(valLen)+trailerLen)
		if _, err := io.ReadFull(br, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				res.torn, res.clean = true, off
				return res, nil
			}
			return res, fmt.Errorf("kv: scan: %w", err)
		}
		crc := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, body[:len(body)-trailerLen])
		if crc != binary.BigEndian.Uint32(body[len(body)-trailerLen:]) {
			res.torn, res.clean = true, off
			return res, nil
		}
		key := string(body[:keyLen])
		val := body[keyLen : len(body)-trailerLen]
		if kind == kindJournal && valid != nil && !valid(val) {
			res.torn, res.clean = true, off
			return res, nil
		}
		valOff := off + headerLen + int64(keyLen)
		switch kind {
		case kindJournal:
			res.payloads = append(res.payloads, val)
		case kindDoc:
			res.docs[key] = span{off: valOff, n: int(valLen)}
		case kindDocTomb:
			delete(res.docs, key)
		case kindViews:
			res.views, res.hasViews = span{off: valOff, n: int(valLen)}, true
		}
		if seq > res.seq {
			res.seq = seq
		}
		off += int64(headerLen + len(body))
	}
}

// Open implements store.Store: create the directory, scan the page
// file (truncating a torn tail so appends land on a clean boundary),
// open the read and append handles, and fsync the directory so the
// page file's entry is durable. Calling Open on an already-open store
// discards all in-memory state and re-reads the disk — the recovery
// path after a latched failure.
func (s *Store) Open(valid func([]byte) bool) ([][]byte, store.Log, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked()
	if err := s.fs.MkdirAll("layout", s.dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("kv: create layout: %w", err)
	}
	path := s.path()
	rf, err := s.fs.OpenFile("kv", path, os.O_RDONLY, 0)
	missing := errors.Is(err, fs.ErrNotExist)
	if err != nil && !missing {
		return nil, nil, fmt.Errorf("kv: open page file: %w", err)
	}
	res := scanResult{docs: make(map[string]span)}
	if !missing {
		res, err = scanFrames(bufio.NewReaderSize(rf, 1<<20), valid)
		if err != nil {
			rf.Close() //nolint:errcheck // already failing; the scan error wins
			return nil, nil, err
		}
		if res.torn {
			if err := s.fs.Truncate("kv", path, res.clean); err != nil {
				rf.Close() //nolint:errcheck
				return nil, nil, fmt.Errorf("kv: truncate torn tail: %w", err)
			}
		}
	}
	wf, err := s.fs.OpenFile("kv", path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		if !missing {
			rf.Close() //nolint:errcheck
		}
		return nil, nil, fmt.Errorf("kv: open page file: %w", err)
	}
	if missing {
		if rf, err = s.fs.OpenFile("kv", path, os.O_RDONLY, 0); err != nil {
			wf.Close() //nolint:errcheck
			return nil, nil, fmt.Errorf("kv: open page file: %w", err)
		}
	}
	if err := syncDir(s.fs, "layout", s.dir); err != nil {
		rf.Close() //nolint:errcheck
		wf.Close() //nolint:errcheck
		return nil, nil, fmt.Errorf("kv: sync layout: %w", err)
	}
	s.rf, s.wf = rf, wf
	s.w = bufio.NewWriterSize(wf, 1<<16)
	s.size, s.seq = res.clean, res.seq
	s.docs, s.views, s.hasViews = res.docs, res.views, res.hasViews
	s.failed = nil
	return res.payloads, &kvLog{s: s}, nil
}

// OpenJournal implements store.Store. The appender is the store's
// shared one, so this is handle bookkeeping only.
func (s *Store) OpenJournal() (store.Log, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wf == nil {
		return nil, errors.New("kv: store not open")
	}
	return &kvLog{s: s}, nil
}

// ScanJournal implements store.Store: an independent read-only pass
// over the page file. Buffered (unflushed) appends are invisible to
// it, and a record caught mid-flush reads as a torn tail — the
// semantics a crash would leave.
func (s *Store) ScanJournal(valid func([]byte) bool) ([][]byte, bool, error) {
	f, err := s.fs.OpenFile("kv", s.path(), os.O_RDONLY, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("kv: open page file: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only descriptor
	res, err := scanFrames(bufio.NewReaderSize(f, 1<<20), valid)
	if err != nil {
		return nil, false, err
	}
	return res.payloads, res.torn, nil
}

// failLocked latches the first append-path error; see the package
// comment for why the store cannot keep writing after one.
func (s *Store) failLocked(err error) {
	if s.failed == nil {
		s.failed = err
	}
}

// appendLocked frames and buffers one record, returning the offset its
// value will occupy once flushed.
func (s *Store) appendLocked(kind byte, key string, val []byte) (int64, error) {
	if s.failed != nil {
		return 0, s.failed
	}
	if s.wf == nil {
		return 0, errors.New("kv: store not open")
	}
	if len(key) > math.MaxUint16 {
		return 0, fmt.Errorf("kv: key of %d bytes exceeds the frame limit", len(key))
	}
	s.seq++
	frame := encodeFrame(kind, s.seq, key, val)
	if _, err := s.w.Write(frame); err != nil {
		s.failLocked(err)
		return 0, err
	}
	valOff := s.size + headerLen + int64(len(key))
	s.size += int64(len(frame))
	return valOff, nil
}

func (s *Store) flushLocked() error {
	if s.failed != nil {
		return s.failed
	}
	if err := s.w.Flush(); err != nil {
		s.failLocked(err)
		return err
	}
	return nil
}

func (s *Store) syncLocked() error {
	if s.failed != nil {
		return s.failed
	}
	if err := s.wf.Sync(); err != nil {
		s.failLocked(err)
		return err
	}
	return nil
}

// ReadDoc implements store.Store: a positioned read of the newest
// page. Pages are flushed on write, so the read never misses buffered
// content.
func (s *Store) ReadDoc(name string) ([]byte, error) {
	s.mu.Lock()
	sp, ok := s.docs[name]
	rf := s.rf
	s.mu.Unlock()
	if !ok || rf == nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	buf := make([]byte, sp.n)
	if _, err := rf.ReadAt(buf, sp.off); err != nil {
		return nil, fmt.Errorf("kv: read doc %q: %w", name, err)
	}
	return buf, nil
}

// WriteDoc implements store.Store: append a page frame and flush it
// through to the operating system — write-through keeps ReadDoc's
// positioned reads coherent without any fsync — then fsync when the
// caller needs durability now rather than via the journal.
func (s *Store) WriteDoc(name string, data []byte, sync bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	valOff, err := s.appendLocked(kindDoc, name, data)
	if err != nil {
		return fmt.Errorf("kv: write doc %q: %w", name, err)
	}
	if err := s.flushLocked(); err != nil {
		return fmt.Errorf("kv: write doc %q: %w", name, err)
	}
	s.docs[name] = span{off: valOff, n: len(data)}
	if sync {
		if err := s.syncLocked(); err != nil {
			return fmt.Errorf("kv: sync doc %q: %w", name, err)
		}
	}
	return nil
}

// RemoveDoc implements store.Store: append a tombstone. Like a
// filestore unlink it is not individually fsynced — the journal's
// committed drop record is the durable authority, and SyncDocs
// (Compact) hardens the rest.
func (s *Store) RemoveDoc(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	if _, err := s.appendLocked(kindDocTomb, name, nil); err != nil {
		return fmt.Errorf("kv: remove doc %q: %w", name, err)
	}
	if err := s.flushLocked(); err != nil {
		return fmt.Errorf("kv: remove doc %q: %w", name, err)
	}
	delete(s.docs, name)
	return nil
}

// ListDocs implements store.Store.
func (s *Store) ListDocs() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.docs))
	for n := range s.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// SyncDocs implements store.Store: one flush+fsync hardens every page,
// the single-file counterpart of the filestore's per-file fsync walk.
func (s *Store) SyncDocs() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushLocked(); err != nil {
		return err
	}
	return s.syncLocked()
}

// ReadViews implements store.Store.
func (s *Store) ReadViews() ([]byte, bool, error) {
	s.mu.Lock()
	sp, ok := s.views, s.hasViews
	rf := s.rf
	s.mu.Unlock()
	if !ok || rf == nil {
		return nil, false, nil
	}
	buf := make([]byte, sp.n)
	if _, err := rf.ReadAt(buf, sp.off); err != nil {
		return nil, false, fmt.Errorf("kv: read views: %w", err)
	}
	return buf, true, nil
}

// WriteViews implements store.Store: an fsynced views page, matching
// the filestore's fsynced views.json swap.
func (s *Store) WriteViews(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	valOff, err := s.appendLocked(kindViews, "", data)
	if err != nil {
		return fmt.Errorf("kv: write views: %w", err)
	}
	if err := s.flushLocked(); err != nil {
		return fmt.Errorf("kv: write views: %w", err)
	}
	if err := s.syncLocked(); err != nil {
		return fmt.Errorf("kv: write views: %w", err)
	}
	s.views, s.hasViews = span{off: valOff, n: len(data)}, true
	return nil
}

// ResetJournal implements store.Store: rewrite the live pages into a
// fresh file, fsync it, rename it over the old one, and reopen the
// handles — the kv equivalent of truncating journal.log, which also
// reclaims superseded pages. The caller (Compact) has already made
// every page durable, so a crash anywhere here leaves either the old
// complete file or the new one.
func (s *Store) ResetJournal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if s.wf == nil {
		return errors.New("kv: store not open")
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	names := make([]string, 0, len(s.docs))
	for n := range s.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	path, tmp := s.path(), s.path()+".tmp"
	tf, err := s.fs.OpenFile("kv", tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("kv: compact: %w", err)
	}
	bw := bufio.NewWriterSize(tf, 1<<16)
	var off int64
	newDocs := make(map[string]span, len(s.docs))
	var newViews span
	writePage := func(kind byte, key string, sp span) (span, error) {
		val := make([]byte, sp.n)
		if _, err := s.rf.ReadAt(val, sp.off); err != nil {
			return span{}, err
		}
		s.seq++
		frame := encodeFrame(kind, s.seq, key, val)
		if _, err := bw.Write(frame); err != nil {
			return span{}, err
		}
		out := span{off: off + headerLen + int64(len(key)), n: sp.n}
		off += int64(len(frame))
		return out, nil
	}
	for _, name := range names {
		if newDocs[name], err = writePage(kindDoc, name, s.docs[name]); err != nil {
			break
		}
	}
	if err == nil && s.hasViews {
		newViews, err = writePage(kindViews, "", s.views)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove("kv", tmp) //nolint:errcheck // best-effort; the rewrite error wins
		return fmt.Errorf("kv: compact: %w", err)
	}
	if err := s.fs.Rename("kv", tmp, path); err != nil {
		return fmt.Errorf("kv: compact: %w", err)
	}
	if err := syncDir(s.fs, "layout", s.dir); err != nil {
		return fmt.Errorf("kv: compact: %w", err)
	}
	// The rename landed: the new file is the store. A failure from here
	// on leaves the handles unusable, so it latches the store (Reopen
	// re-runs Open, which re-reads the — consistent — new file).
	s.rf.Close() //nolint:errcheck // superseded handle
	s.wf.Close() //nolint:errcheck
	s.rf, s.wf, s.w = nil, nil, nil
	rf, err := s.fs.OpenFile("kv", path, os.O_RDONLY, 0)
	if err != nil {
		s.failLocked(err)
		return fmt.Errorf("kv: compact reopen: %w", err)
	}
	wf, err := s.fs.OpenFile("kv", path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		rf.Close() //nolint:errcheck
		s.failLocked(err)
		return fmt.Errorf("kv: compact reopen: %w", err)
	}
	s.rf, s.wf = rf, wf
	s.w = bufio.NewWriterSize(wf, 1<<16)
	s.size = off
	s.docs, s.views = newDocs, newViews
	return nil
}

// Stats implements store.Store.
func (s *Store) Stats() (store.Stats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := store.Stats{Backend: s.Backend(), Docs: len(s.docs), Bytes: s.size}
	for name, sp := range s.docs {
		st.LiveBytes += int64(headerLen + len(name) + sp.n + trailerLen)
	}
	if s.hasViews {
		st.LiveBytes += int64(headerLen + s.views.n + trailerLen)
	}
	return st, nil
}

// Close implements store.Store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.w != nil && s.failed == nil {
		err = s.w.Flush()
	}
	s.closeLocked()
	return err
}

// closeLocked releases the handles, best-effort. The caller holds mu.
func (s *Store) closeLocked() {
	if s.rf != nil {
		s.rf.Close() //nolint:errcheck
	}
	if s.wf != nil {
		s.wf.Close() //nolint:errcheck
	}
	s.rf, s.wf, s.w = nil, nil, nil
}

// kvLog adapts the store's shared appender to store.Log.
type kvLog struct {
	s *Store
}

func (l *kvLog) Append(p []byte) error {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	_, err := l.s.appendLocked(kindJournal, "", p)
	return err
}

func (l *kvLog) Flush() error {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	return l.s.flushLocked()
}

func (l *kvLog) Sync() error {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	return l.s.syncLocked()
}

// Close flushes the appender; the handles stay with the Store (the
// journal region has no file of its own to release).
func (l *kvLog) Close() error {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	if l.s.w == nil {
		return nil
	}
	return l.s.flushLocked()
}
