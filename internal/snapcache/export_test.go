package snapcache

import "leosim/internal/graph"

// Peek reports whether key is resident without touching LRU order or
// counters.
func (c *Cache[K, V]) Peek(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// residentOf is one resident entry as the model sees it.
type residentOf[K Keyer, V comparable] struct {
	key K
	n   V
	aux any
}

// residentEntry is an entry of a cache of networks keyed by what-ifs, which
// the model drives.
type residentEntry = residentOf[whatIf, *graph.Network]

// resident lists the resident entries, most recently used first, and the
// number of builds registered as in flight.
func (c *Cache[K, V]) resident() ([]residentOf[K, V], int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []residentOf[K, V]
	for el := c.lru.Front(); el != nil; el = el.Next() {
		k := el.Value.(K)
		out = append(out, residentOf[K, V]{key: k, n: c.entries[k].v, aux: c.entries[k].aux})
	}
	return out, len(c.inflight)
}
