package server

import (
	"fmt"
	"testing"
)

func k(doc, q string) queryKey { return queryKey{doc: doc, query: q, mode: "exact"} }

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.put(k("d", "q1"), 1, []Answer{{P: 1}})
	c.put(k("d", "q2"), 1, []Answer{{P: 2}})
	if _, ok := c.get(k("d", "q1"), 1); !ok {
		t.Fatal("q1 evicted early")
	}
	// q1 is now most recent; inserting q3 evicts q2.
	c.put(k("d", "q3"), 1, []Answer{{P: 3}})
	if _, ok := c.get(k("d", "q2"), 1); ok {
		t.Error("q2 not evicted")
	}
	if _, ok := c.get(k("d", "q1"), 1); !ok {
		t.Error("q1 evicted despite being recent")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestLRUPutRefreshes(t *testing.T) {
	c := newLRU(4)
	c.put(k("d", "q"), 1, []Answer{{P: 1}})
	c.put(k("d", "q"), 1, []Answer{{P: 2}})
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	got, ok := c.get(k("d", "q"), 1)
	if !ok || got.([]Answer)[0].P != 2 {
		t.Errorf("get = %v %v, want refreshed P=2", got, ok)
	}
}

func TestLRUDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newLRU(capacity)
		c.put(k("d", "q"), 1, []Answer{{P: 1}})
		if _, ok := c.get(k("d", "q"), 1); ok {
			t.Errorf("cap=%d: disabled cache returned a hit", capacity)
		}
		if c.len() != 0 {
			t.Errorf("cap=%d: len = %d, want 0", capacity, c.len())
		}
	}
}

func TestLRUModeKeysDistinct(t *testing.T) {
	c := newLRU(8)
	c.put(queryKey{doc: "d", query: "q", mode: "exact"}, 1, []Answer{{P: 1}})
	if _, ok := c.get(queryKey{doc: "d", query: "q", mode: "mc:1000:1"}, 1); ok {
		t.Error("mc key hit the exact entry")
	}
}

// TestLRUVersions pins the staleness contract: an entry answers only
// the snapshot version it was computed from, a fill for version n can
// neither shadow nor overwrite one for version n+1, and superseded
// entries are replaced in place, so capacity still bounds the list.
func TestLRUVersions(t *testing.T) {
	c := newLRU(2)
	c.put(k("d", "q"), 1, []Answer{{P: 1}})
	if _, ok := c.get(k("d", "q"), 2); ok {
		t.Fatal("version 1 entry served to a version 2 reader")
	}
	c.put(k("d", "q"), 2, []Answer{{P: 2}})
	// A slow version 1 filler finishes after the version 2 fill.
	c.put(k("d", "q"), 1, []Answer{{P: 1}})
	if got, ok := c.get(k("d", "q"), 2); !ok || got.([]Answer)[0].P != 2 {
		t.Errorf("get at version 2 = %v %v, want the version 2 payload", got, ok)
	}
	if _, ok := c.get(k("d", "q"), 1); ok {
		t.Error("version 2 entry served to a version 1 reader")
	}
	for v := uint64(3); v < 10; v++ {
		c.put(k("d", "q"), v, nil)
		c.put(k("d", fmt.Sprint("q", v)), v, nil)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want capacity 2", c.len())
	}
}
