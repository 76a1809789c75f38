package snapcache

// Peek reports whether key is resident without touching LRU order or
// counters. Stale-but-servable entries count.
func (c *Cache) Peek(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return ok && !(c.ttl > 0 && c.now().Sub(e.builtAt) >= c.ttl+c.staleFor)
}
