package snapcache

import "leosim/internal/graph"

// Peek reports whether key is resident without touching LRU order or
// counters.
func (c *Cache[V]) Peek(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// residentOf is one resident entry as the model sees it.
type residentOf[V comparable] struct {
	key Key
	n   V
	aux any
}

// residentEntry is an entry of a cache of networks, which the model drives.
type residentEntry = residentOf[*graph.Network]

// resident lists the resident entries, most recently used first, and the
// number of builds registered as in flight.
func (c *Cache[V]) resident() ([]residentOf[V], int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []residentOf[V]
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := c.entries[el.Value.(Key)]
		out = append(out, residentOf[V]{key: el.Value.(Key), n: e.v, aux: e.aux})
	}
	return out, len(c.inflight)
}
