package vfs

import (
	"errors"
	"io/fs"
	"os"
	"sort"
	"sync"
	"time"
)

// ErrInjected is the error a Fault returns when it does not specify
// one of its own. Tests assert on it with errors.Is.
var ErrInjected = errors.New("vfs: injected fault")

// Fault describes one programmable failure at a fault point.
//
// The zero value trips immediately, every time, with ErrInjected. The
// fields carve out the standard shapes:
//
//   - fail-on-Nth-call: AfterN = n-1 (skip the first n-1 matching calls)
//   - fail-once-then-heal: Count = 1
//   - ENOSPC: Err = syscall.ENOSPC
//   - short/torn write: Short = true on a .write point — half the
//     buffer reaches the file, then the error is returned
//   - injected latency: Delay > 0 with Err == nil sleeps without failing
type Fault struct {
	// Err is the error to inject; nil means ErrInjected (unless the
	// fault is latency-only, Delay > 0).
	Err error
	// AfterN skips the first AfterN matching calls before tripping.
	AfterN int
	// Count limits how many times the fault trips; 0 means every
	// matching call after AfterN.
	Count int
	// Short makes a .write point write the first half of the buffer
	// before failing, simulating a torn write.
	Short bool
	// Delay is slept before the operation runs or fails.
	Delay time.Duration
	// latencyOnly is derived at Set time: Delay > 0 and no error shape.
	latencyOnly bool
}

// outcome is the injector's verdict for one call.
type outcome struct {
	delay time.Duration
	err   error
	short bool
}

// Injector decides, per named fault point, whether a call fails. It
// also counts every call it sees, so a test can discover the set of
// fault points a workload exercises (Observed) and how often each
// armed fault actually fired (Trips). All methods are safe for
// concurrent use; the zero Injector is not valid — use NewInjector.
type Injector struct {
	mu     sync.Mutex
	faults map[string]*faultState
	calls  map[string]int
	trips  map[string]int
}

type faultState struct {
	f    Fault
	seen int // matching calls observed since Set
	hits int // times tripped
}

// NewInjector returns an injector with no faults armed: every call
// passes through (but is still counted).
func NewInjector() *Injector {
	return &Injector{
		faults: make(map[string]*faultState),
		calls:  make(map[string]int),
		trips:  make(map[string]int),
	}
}

// Set arms fault f at point (replacing any previous fault there and
// resetting its call window).
func (in *Injector) Set(point string, f Fault) {
	f.latencyOnly = f.Delay > 0 && f.Err == nil && !f.Short
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults[point] = &faultState{f: f}
}

// Reset disarms all faults and zeroes all counters.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = make(map[string]*faultState)
	in.calls = make(map[string]int)
	in.trips = make(map[string]int)
}

// Calls reports how many operations have hit point since the last
// Reset, tripped or not.
func (in *Injector) Calls(point string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[point]
}

// Trips reports how many times the fault at point has fired.
func (in *Injector) Trips(point string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.trips[point]
}

// Observed returns the sorted list of fault points seen since the last
// Reset. Running a workload against a passthrough injector and reading
// Observed is how the sweep test discovers the catalog, so new I/O
// call sites are covered automatically.
func (in *Injector) Observed() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.calls))
	for p := range in.calls {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// check records the call and returns the verdict.
func (in *Injector) check(point string) outcome {
	in.mu.Lock()
	in.calls[point]++
	st := in.faults[point]
	if st == nil {
		in.mu.Unlock()
		return outcome{}
	}
	st.seen++
	if st.seen <= st.f.AfterN || (st.f.Count > 0 && st.hits >= st.f.Count) {
		in.mu.Unlock()
		return outcome{}
	}
	st.hits++
	in.trips[point]++
	o := outcome{delay: st.f.Delay, err: st.f.Err, short: st.f.Short}
	in.mu.Unlock()
	if o.err == nil && !st.f.latencyOnly {
		o.err = ErrInjected
	}
	if st.f.latencyOnly {
		o.err = nil
	}
	return o
}

// fire runs the verdict's side effects (latency) and returns its error.
func (in *Injector) fire(point string) error {
	o := in.check(point)
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	return o.err
}

// FaultFS wraps an FS, consulting an Injector before every operation.
// It is the test double for OS: same errors pass through, plus
// whatever the injector decides to add.
type FaultFS struct {
	inner FS
	inj   *Injector
}

// NewFaultFS returns an FS that forwards to inner unless inj injects a
// fault for the call's point.
func NewFaultFS(inner FS, inj *Injector) *FaultFS {
	return &FaultFS{inner: inner, inj: inj}
}

func (f *FaultFS) OpenFile(area, name string, flag int, perm os.FileMode) (File, error) {
	if err := f.inj.fire(area + ".open"); err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.inner.OpenFile(area, name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, inj: f.inj, area: area}, nil
}

func (f *FaultFS) ReadFile(area, name string) ([]byte, error) {
	if err := f.inj.fire(area + ".readfile"); err != nil {
		return nil, &fs.PathError{Op: "read", Path: name, Err: err}
	}
	return f.inner.ReadFile(area, name)
}

func (f *FaultFS) ReadDir(area, name string) ([]fs.DirEntry, error) {
	if err := f.inj.fire(area + ".readdir"); err != nil {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: err}
	}
	return f.inner.ReadDir(area, name)
}

func (f *FaultFS) Stat(area, name string) (fs.FileInfo, error) {
	if err := f.inj.fire(area + ".stat"); err != nil {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: err}
	}
	return f.inner.Stat(area, name)
}

func (f *FaultFS) Rename(area, oldpath, newpath string) error {
	if err := f.inj.fire(area + ".rename"); err != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	return f.inner.Rename(area, oldpath, newpath)
}

func (f *FaultFS) Remove(area, name string) error {
	if err := f.inj.fire(area + ".remove"); err != nil {
		return &fs.PathError{Op: "remove", Path: name, Err: err}
	}
	return f.inner.Remove(area, name)
}

func (f *FaultFS) Truncate(area, name string, size int64) error {
	if err := f.inj.fire(area + ".truncate"); err != nil {
		return &fs.PathError{Op: "truncate", Path: name, Err: err}
	}
	return f.inner.Truncate(area, name, size)
}

func (f *FaultFS) MkdirAll(area, name string, perm os.FileMode) error {
	if err := f.inj.fire(area + ".mkdir"); err != nil {
		return &fs.PathError{Op: "mkdir", Path: name, Err: err}
	}
	return f.inner.MkdirAll(area, name, perm)
}

// faultFile routes a File's operations through the injector under the
// opening call's area.
type faultFile struct {
	File
	inj  *Injector
	area string
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err := ff.inj.fire(ff.area + ".read"); err != nil {
		return 0, err
	}
	return ff.File.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.inj.fire(ff.area + ".readat"); err != nil {
		return 0, err
	}
	return ff.File.ReadAt(p, off)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	o := ff.inj.check(ff.area + ".write")
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	if o.err != nil {
		if o.short && len(p) > 0 {
			// Torn write: half the buffer lands before the failure.
			n, werr := ff.File.Write(p[:len(p)/2])
			if werr != nil {
				return n, werr
			}
			return n, o.err
		}
		return 0, o.err
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.inj.fire(ff.area + ".sync"); err != nil {
		return err
	}
	return ff.File.Sync()
}

func (ff *faultFile) Close() error {
	if err := ff.inj.fire(ff.area + ".close"); err != nil {
		// The underlying descriptor must still be released, or the
		// sweep's reopen would run against leaked handles. The close
		// error the caller sees is the injected one.
		ff.File.Close() //nolint:errcheck // best-effort release behind an injected failure
		return err
	}
	return ff.File.Close()
}
