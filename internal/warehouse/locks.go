package warehouse

import "sync"

// nStripes sizes the lock table. Lookups hash the document name to a
// stripe, so handing out locks never becomes a global contention point.
const nStripes = 64

// lockTable hands out one mutex per document from a striped map of
// lazily created entries. The mutex is held across a whole mutation of
// the document — compute, view maintenance, journal append, publish —
// and across its cold load from the store; readers of a resident
// document never take it. Callers guard get behind an existence check
// (see Warehouse.statGuard), Drop deletes its entry, and operations
// that find the document vanished release any entry they re-created in
// the race window (see Warehouse.releaseIfGone) — so the table is
// bounded by documents that currently exist or are being created,
// never by arbitrary names clients probe or create/drop churn.
type lockTable struct {
	stripes [nStripes]struct {
		mu    sync.Mutex
		locks map[string]*sync.Mutex
	}
}

func (t *lockTable) get(name string) *sync.Mutex {
	s := &t.stripes[fnv32(name)%nStripes]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.locks == nil {
		s.locks = make(map[string]*sync.Mutex)
	}
	mu, ok := s.locks[name]
	if !ok {
		mu = &sync.Mutex{}
		s.locks[name] = mu
	}
	return mu
}

// peek returns the entry without creating one.
func (t *lockTable) peek(name string) (*sync.Mutex, bool) {
	s := &t.stripes[fnv32(name)%nStripes]
	s.mu.Lock()
	defer s.mu.Unlock()
	mu, ok := s.locks[name]
	return mu, ok
}

// del removes the entry. Goroutines still blocked on the removed
// mutex recheck table membership after acquiring it (see
// Warehouse.lockWriter) and retry on the successor entry.
func (t *lockTable) del(name string) {
	s := &t.stripes[fnv32(name)%nStripes]
	s.mu.Lock()
	delete(s.locks, name)
	s.mu.Unlock()
}

// size reports the number of allocated lock entries (for tests).
func (t *lockTable) size() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += len(s.locks)
		s.mu.Unlock()
	}
	return n
}

// fnv32 is the 32-bit FNV-1a hash.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
