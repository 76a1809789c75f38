package snapcache

import "leosim/internal/graph"

// Peek reports whether key is resident without touching LRU order or
// counters.
func (c *Cache) Peek(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// residentEntry is one resident entry as the model sees it.
type residentEntry struct {
	key Key
	n   *graph.Network
	aux any
}

// resident lists the resident entries, most recently used first, and the
// number of builds registered as in flight.
func (c *Cache) resident() ([]residentEntry, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []residentEntry
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := c.entries[el.Value.(Key)]
		out = append(out, residentEntry{key: el.Value.(Key), n: e.n, aux: e.aux})
	}
	return out, len(c.inflight)
}
