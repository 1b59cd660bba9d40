package warehouse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

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

// decodeRecord parses a journal payload into r, reporting whether it
// is a Record within the size cap. It reads the one JSON object
// directly and accepts exactly what json.Unmarshal accepts for a
// Record, leaving r as Unmarshal would: keys in any order, matched
// exactly or else case-insensitively, the last of a repeated key
// winning; unknown keys with any value; null for any field (or the
// whole payload) changing nothing; every string escape, surrogate pairs
// joined and anything else invalid read as U+FFFD; integers in range;
// at most 10000 levels of nesting. FuzzDecodeRecordMatchesJSON holds it
// to that.
func decodeRecord(payload []byte, r *Record) bool {
	if len(payload) >= maxRecordBytes {
		return false
	}
	var d recordDecoder
	return d.decode(payload, r)
}

// decode is decodeRecord with d's scratch, which a scan decoding many
// payloads reuses.
func (d *recordDecoder) decode(payload []byte, r *Record) bool {
	if len(payload) >= maxRecordBytes {
		return false
	}
	d.data, d.pos = payload, 0
	d.space()
	if !d.literal("null") {
		if !d.object(r) {
			return false
		}
	}
	d.space()
	return d.pos == len(d.data)
}

// maxJSONDepth is the nesting json.Unmarshal allows.
const maxJSONDepth = 10000

// recordDecoder is a cursor over one journal payload.
type recordDecoder struct {
	data []byte
	pos  int
	buf  []byte // scratch for strings with escapes or invalid UTF-8
}

func (d *recordDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// consume skips c if it is the next byte.
func (d *recordDecoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// literal skips lit if it comes next.
func (d *recordDecoder) literal(lit string) bool {
	if bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		d.pos += len(lit)
		return true
	}
	return false
}

// object reads the record object, at the start of which the cursor is.
func (d *recordDecoder) object(r *Record) bool {
	if !d.consume('{') {
		return false
	}
	d.space()
	if d.consume('}') {
		return true
	}
	for {
		d.space()
		key, ok := d.str()
		if !ok {
			return false
		}
		d.space()
		if !d.consume(':') {
			return false
		}
		d.space()
		if !d.field(r, key) {
			return false
		}
		d.space()
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// recordKeys are Record's JSON keys, which a key matches ignoring case
// when it matches none exactly.
var recordKeys = []string{"seq", "op", "ref", "doc", "tx", "event", "nodes", "content", "view", "query", "syntax"}

// field reads the value of key into r's field of that key: a string or
// null for a string field, an integer or null for an integer field,
// and any value for an unknown key.
func (d *recordDecoder) field(r *Record, key []byte) bool {
	s, n, nodes := recordField(r, key)
	if s == nil && n == nil && !nodes {
		for _, k := range recordKeys {
			if bytes.EqualFold(key, []byte(k)) {
				s, n, nodes = recordField(r, []byte(k))
				break
			}
		}
	}
	if s == nil && n == nil && !nodes {
		return d.skip(1)
	}
	if d.literal("null") {
		return true
	}
	if s != nil {
		v, ok := d.str()
		if ok {
			*s = string(v)
		}
		return ok
	}
	v, ok := d.integer()
	if !ok {
		return false
	}
	if nodes {
		if int64(int(v)) != v {
			return false
		}
		r.Nodes = int(v)
	} else {
		*n = v
	}
	return true
}

// recordField returns the field of r whose JSON key is exactly key:
// a string field, an int64 field, or (nodes) Nodes; none for an
// unknown key.
func recordField(r *Record, key []byte) (s *string, n *int64, nodes bool) {
	switch string(key) {
	case "seq":
		n = &r.Seq
	case "ref":
		n = &r.RefSeq
	case "nodes":
		nodes = true
	case "op":
		s = (*string)(&r.Op)
	case "doc":
		s = &r.Doc
	case "tx":
		s = &r.Tx
	case "event":
		s = &r.Event
	case "content":
		s = &r.Content
	case "view":
		s = &r.View
	case "query":
		s = &r.Query
	case "syntax":
		s = &r.Syntax
	}
	return s, n, nodes
}

// integer reads a JSON number that is an integer in int64's range.
func (d *recordDecoder) integer() (int64, bool) {
	start := d.pos
	if !d.number() {
		return 0, false
	}
	lit := d.data[start:d.pos]
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var u uint64
	for _, c := range lit {
		if c < '0' || c > '9' || u > (1<<63)/10 {
			return 0, false // a fraction, an exponent, or too large
		}
		u = u*10 + uint64(c-'0')
	}
	if neg && u > 1<<63 || !neg && u > 1<<63-1 {
		return 0, false
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), true
}

// number skips a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *recordDecoder) number() bool {
	d.consume('-')
	if d.consume('0') {
	} else if !d.digits() {
		return false
	}
	if d.consume('.') && !d.digits() {
		return false
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if !d.digits() {
			return false
		}
	}
	return true
}

// digits skips one or more decimal digits.
func (d *recordDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// skip reads any JSON value at nesting depth depth.
func (d *recordDecoder) skip(depth int) bool {
	if d.pos >= len(d.data) {
		return false
	}
	switch c := d.data[d.pos]; {
	case c == '"':
		_, ok := d.str()
		return ok
	case c == '{' || c == '[':
		if depth++; depth > maxJSONDepth {
			return false
		}
		d.pos++
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		d.space()
		if d.consume(end) {
			return true
		}
		for {
			d.space()
			if c == '{' {
				if _, ok := d.str(); !ok {
					return false
				}
				d.space()
				if !d.consume(':') {
					return false
				}
				d.space()
			}
			if !d.skip(depth) {
				return false
			}
			d.space()
			if d.consume(end) {
				return true
			}
			if !d.consume(',') {
				return false
			}
		}
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	default:
		return d.literal("true") || d.literal("false") || d.literal("null")
	}
}

// jsonPlain marks the ASCII bytes that stand for themselves inside a
// JSON string.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a JSON string and returns its value: a slice of the input
// when it has no escape and is valid UTF-8, else decoded into d.buf
// (valid until the next call) as json.Unmarshal decodes it.
func (d *recordDecoder) str() ([]byte, bool) {
	data := d.data
	if !d.consume('"') {
		return nil, false
	}
	first, start := d.pos, d.pos
	out := d.buf[:0]
	decoded := false
	for i := d.pos; ; {
		if i >= len(data) {
			return nil, false
		}
		c := data[i]
		if c < utf8.RuneSelf {
			if jsonPlain[c] {
				i++
				continue
			}
			if c < ' ' {
				return nil, false
			}
			if c == '"' {
				d.pos = i + 1
				if !decoded {
					return data[first:i], true
				}
				out = append(out, data[start:i]...)
				d.buf = out
				return out, true
			}
			// A backslash escape.
			if !decoded {
				// Room for the whole value, which is no longer than its
				// escaped form, bar invalid UTF-8.
				if n := closingQuote(data, i) - first; cap(out) < n {
					out = make([]byte, 0, n)
				}
			}
			out, decoded = append(out, data[start:i]...), true
			if i+1 >= len(data) {
				return nil, false
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(data[i+2:])
				if r < 0 {
					return nil, false
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A high surrogate joins a \u low surrogate after it;
					// anything else reads as U+FFFD.
					if r2 := hex4u(data[i+2:]); utf16.DecodeRune(r, r2) != unicode.ReplacementChar {
						r = utf16.DecodeRune(r, r2)
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, false
			}
			i += 2
			start = i
			continue
		}
		r, n := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && n == 1 {
			out, decoded = append(out, data[start:i]...), true
			out = utf8.AppendRune(out, unicode.ReplacementChar)
			start = i + 1
		}
		i += n
	}
}

// closingQuote returns the index of the first unescaped quote at or
// after i, the first backslash of a JSON string, or len(data).
func closingQuote(data []byte, i int) int {
	start := i
	for i < len(data) {
		k := bytes.IndexByte(data[i:], '"')
		if k < 0 {
			break
		}
		i += k
		escaped := false
		for j := i - 1; j >= start && data[j] == '\\'; j-- {
			escaped = !escaped
		}
		if !escaped {
			return i
		}
		i++
	}
	return len(data)
}

// hex4 returns the value of four hexadecimal digits at the start of
// s, or -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// hex4u is hex4 of a \u escape at the start of s.
func hex4u(s []byte) rune {
	if len(s) < 2 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
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
