package server

import (
	"container/list"
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flat"
	"repro/internal/vec"
)

// queryCache is an LRU memo of search results keyed by the exact query
// bytes (collection, incarnation, k, variant, coordinates — no hashing,
// so a hit is never a collision). An entry keeps the version and epoch
// of the view its hits answer. One at the version a search pins is a
// hit. An older one on an exact kind is brought forward across the
// writes since (collView.bringForward) — an exact top-k list stays exact
// unless a write removes one of its members, which the entry's own rows'
// tombstone bits tell, and a new row enters only if it beats the k-th
// best — so exact writes invalidate nothing. alsh answers are not exact
// under their candidate sets, so an alsh write drops its collection's
// entries (invalidate), and an alsh entry at another version is a miss
// even if a drop was missed.
type queryCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element

	hits, misses, invalidations atomic.Int64
	// revalidated counts older entries brought forward as hits; touched
	// those a write since removed a hit from, even past the note horizon;
	// expired the rest, whose writes lie past it or before a compaction.
	revalidated, touched, expired atomic.Int64
}

type cacheEntry struct {
	key        string
	collection string
	hits       []Hit
	// rows[i] is where hits[i] lives in the view they answer, whose
	// version and epoch these are.
	rows           []hitRow
	version, epoch uint64
}

// hitRow is a row's shard and store row in one epoch of its collection.
type hitRow struct{ shard, row int32 }

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

// appendCacheKey appends a search identity's exact binary key to buf.
// gen is the collection incarnation (unique per created/recovered
// Collection within this server's life): a dropped-and-recreated
// collection restarts versions at 0, so without it an in-flight put
// racing the drop's invalidate could strand an old-incarnation entry
// that a same-name successor would later serve.
func appendCacheKey(buf []byte, collection string, gen uint64, k int, unsigned bool, q vec.Vector) []byte {
	buf = append(buf, collection...)
	buf = append(buf, 0)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	if unsigned {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, x := range q {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// get returns a copy of the entry under key, if present, and marks it
// most recently used. The lookup converts key without allocating.
func (c *queryCache) get(key []byte) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		return cacheEntry{}, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*cacheEntry), true
}

// put memoizes hits, the answer at (version, epoch), and their rows under
// key, evicting the least recently used entry when over capacity. An
// entry already answering a later view keeps its hits. Only a new entry
// copies key.
func (c *queryCache) put(collection string, key []byte, hits []Hit, rows []hitRow, version, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[string(key)]; ok {
		c.ll.MoveToFront(el)
		if e := el.Value.(*cacheEntry); version > e.version || version == e.version && epoch >= e.epoch {
			e.hits, e.rows, e.version, e.epoch = hits, rows, version, epoch
		}
		return
	}
	e := &cacheEntry{key: string(key), collection: collection, hits: hits, rows: rows, version: version, epoch: epoch}
	c.items[e.key] = c.ll.PushFront(e)
	if c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
	}
}

// invalidate drops every entry belonging to the collection (called on
// an alsh write and on drop) and returns the number removed.
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

// cachedHits answers q from cache at the pinned view v, if it can: an
// entry at v's version as it stands, an older one of an exact kind whose
// query has the collection's dimension brought forward to v and written
// back. An alsh entry, an entry cached while the collection held no row
// for a query of another dimension, or one from a later view is a miss.
func (c *Collection) cachedHits(cache *queryCache, v *collView, key []byte, q vec.Vector, k int, unsigned bool) ([]Hit, bool) {
	e, ok := cache.get(key)
	if ok && e.version != v.version {
		ok = false
		if e.version < v.version && c.spec.kind() != KindALSH && len(q) == int(c.dim.Load()) {
			hits, rows, outcome := v.bringForward(cache, e, q, k, unsigned)
			outcome.Add(1)
			if ok = outcome == &cache.revalidated; ok {
				e.hits = hits
				cache.put(c.name, key, hits, rows, v.version, v.epoch)
			}
		}
	}
	if !ok {
		cache.misses.Add(1)
		return nil, false
	}
	cache.hits.Add(1)
	return e.hits, true
}

// bringForward returns e's hits, the exact top k of an earlier view of
// v's epoch, as the top k at v, with their rows, and the counter of its
// outcome: revalidated, or touched when one of e's rows is tombstoned at
// v — rows never revive within an epoch, so a write since removed that
// hit, and the rows under it are unknown — or expired when v's notes do
// not reach back to e's version or e predates a compaction. Every row
// appended since and live at v is offered in each note's norm order,
// under the norm bound (flat.NormBound) against the k-th best: the first
// that cannot reach it ends the note. An offered row is scored as a scan
// scores it and placed by (score descending, ID ascending); the k-th best
// only rises, so the answer is the top k of the old hits and the rows
// offered, which is the top k of v's live rows.
func (v *collView) bringForward(cache *queryCache, e cacheEntry, q vec.Vector, k int, unsigned bool) ([]Hit, []hitRow, *atomic.Int64) {
	if e.epoch != v.epoch {
		return nil, nil, &cache.expired
	}
	for _, r := range e.rows {
		if v.snaps[r.shard].dead.Dead(int(r.row)) {
			return nil, nil, &cache.touched
		}
	}
	want := v.version // every version since e's has its note, newest first
	for n := v.writes; want > e.version; n, want = n.prev.Load(), want-1 {
		if n == nil || n.version != want {
			return nil, nil, &cache.expired
		}
	}
	hits, rows := e.hits, e.rows
	bound, slack := flat.NormBound(q)
	for n, want := v.writes, v.version; want > e.version; n, want = n.prev.Load(), want-1 {
		if n == nil { // cut by a write since the walk above
			return nil, nil, &cache.expired
		}
		for _, r := range n.appended(v.snaps) {
			bar := math.Inf(-1)
			if len(hits) == k {
				bar = hits[k-1].Score
			}
			if r.norm*bound < bar-slack {
				break
			}
			sn := v.snaps[r.shard]
			if sn.dead.Dead(int(r.row)) {
				continue
			}
			score := vec.DotKernel(sn.row(int(r.row)), q)
			if unsigned {
				score = math.Abs(score)
			}
			if score >= bar { // NaN never enters, as in flat.Acc
				hits, rows = insertHit(hits, rows, Hit{ID: sn.ids[r.row], Score: score}, r.hitRow, k)
			}
		}
	}
	return hits, rows, &cache.revalidated
}

// insertHit returns new lists of the k best of hits, in (score
// descending, ID ascending) order, and h, and of their rows, r being h's;
// hits and rows themselves, which may be shared, are left alone.
func insertHit(hits []Hit, rows []hitRow, h Hit, r hitRow, k int) ([]Hit, []hitRow) {
	at := sort.Search(len(hits), func(i int) bool {
		return hits[i].Score < h.Score || hits[i].Score == h.Score && hits[i].ID > h.ID
	})
	if at == k {
		return hits, rows
	}
	return insertAt(hits, at, h, k), insertAt(rows, at, r, k)
}

// insertAt returns a new list of s with x inserted at at, cut to k.
func insertAt[T any](s []T, at int, x T, k int) []T {
	out := make([]T, 0, min(len(s)+1, k))
	out = append(out, s[:at]...)
	out = append(out, x)
	return append(out, s[at:min(len(s), k-1)]...)
}
