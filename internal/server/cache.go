package server

import (
	"container/list"
	"sync"
)

// queryKey identifies one cached result: the document, the canonical
// textual form of the query (so syntactic variants of the same pattern
// share an entry) or keyword set, and the evaluation mode.
type queryKey struct {
	doc   string
	query string
	mode  string // "exact", "mc:<samples>:<seed>" or "search:..."
}

// lruCache is a fixed-capacity LRU map from queryKey to an encoded
// response payload (query answers, search answers). A capacity < 1
// disables the cache entirely.
//
// Every entry carries the version of the warehouse.Snapshot it was
// computed from, and is served only to a reader holding that same
// version. A mutation therefore needs no invalidation call: it
// publishes a snapshot with a larger version, which the old entries do
// not match; they are overwritten by the next fill of their key or age
// out of the list.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[queryKey]*list.Element
}

type lruEntry struct {
	key     queryKey
	version uint64
	value   any
}

func newLRU(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[queryKey]*list.Element),
	}
}

func (c *lruCache) enabled() bool { return c.cap > 0 }

// get returns the payload cached for the key at exactly this snapshot
// version, refreshing the entry's recency.
func (c *lruCache) get(k queryKey, version uint64) (any, bool) {
	if !c.enabled() {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		if e := el.Value.(*lruEntry); e.version == version {
			c.ll.MoveToFront(el)
			return e.value, true
		}
	}
	return nil, false
}

// put inserts or replaces the key's entry, evicting the least recently
// used one beyond capacity. A payload computed from an older version
// than the entry already holds (a slow query that raced a mutation) is
// discarded.
func (c *lruCache) put(k queryKey, version uint64, value any) {
	if !c.enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		if e := el.Value.(*lruEntry); version >= e.version {
			c.ll.MoveToFront(el)
			e.version, e.value = version, value
		}
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, version: version, value: value})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
