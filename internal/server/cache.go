package server

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/vec"
)

// queryCache is an LRU memo of search results keyed by the exact query
// bytes (collection, version, k, variant, coordinates — no hashing, so
// a hit is never a collision). Entries are tagged with their collection
// so ingest can invalidate explicitly; keys also embed the collection
// version, making any entry that survives a missed invalidation
// unreachable rather than stale.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element

	hits, misses, invalidations atomic.Int64
}

type cacheEntry struct {
	key        string
	collection string
	hits       []Hit
}

// newQueryCache creates a cache holding up to capacity results;
// capacity <= 0 disables caching.
func newQueryCache(capacity int) *queryCache {
	return &queryCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// enabled reports whether the cache memoizes at all; the serving layer
// skips key construction entirely when it does not.
func (c *queryCache) enabled() bool { return c.cap > 0 }

// cacheKey serializes a search identity to an exact binary key. gen is
// the collection incarnation (unique per created/recovered Collection
// within this server's life): a dropped-and-recreated collection
// restarts versions at 0, so without it an in-flight put racing the
// drop's invalidate could strand an old-incarnation entry that a
// same-name successor would later serve.
func cacheKey(collection string, gen, version uint64, k int, unsigned bool, q vec.Vector) string {
	buf := make([]byte, 0, len(collection)+1+25+8*len(q))
	buf = append(buf, collection...)
	buf = append(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	if unsigned {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, x := range q {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return string(buf)
}

// get returns the memoized hits for key, if present.
func (c *queryCache) get(key string) ([]Hit, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).hits, true
}

// put memoizes hits under key, evicting the least recently used entry
// when over capacity.
func (c *queryCache) put(collection, key string, hits []Hit) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).hits = hits
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, collection: collection, hits: hits})
	c.items[key] = el
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// invalidate drops every entry belonging to the collection (called on
// ingest) and returns the number removed.
func (c *queryCache) invalidate(collection string) int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.collection == collection {
			c.ll.Remove(el)
			delete(c.items, e.key)
			removed++
		}
		el = next
	}
	if removed > 0 {
		c.invalidations.Add(int64(removed))
	}
	return removed
}

// len returns the current entry count.
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
