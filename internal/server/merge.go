package server

// mergeTopKInto combines per-shard top-k lists — each already ordered
// by (score descending, ID ascending) — into the global top-k under the
// same ordering, via a k-way heap merge: the heap holds one cursor per
// non-empty list and pops the best head until k hits are emitted. Merged
// hits are appended to dst and the cursor heap's backing array is
// recycled through scratch. dst must have spare capacity for k more
// entries if the caller needs previously returned slices to stay stable.
// The appended portion is returned. The heap operations are hand-rolled
// (no container/heap) so nothing is boxed through an interface.
func mergeTopKInto(lists [][]Hit, k int, dst []Hit, scratch *mergeHeap) []Hit {
	h := (*scratch)[:0]
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, mergeCursor{list: l})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
	base := len(dst)
	for len(h) > 0 && len(dst)-base < k {
		c := &h[0]
		dst = append(dst, c.list[c.pos])
		c.pos++
		if c.pos == len(c.list) {
			n := len(h) - 1
			h[0] = h[n]
			h = h[:n]
		}
		h.siftDown(0)
	}
	*scratch = h[:0]
	return dst[base:]
}

// mergeCursor walks one shard's hit list.
type mergeCursor struct {
	list []Hit
	pos  int
}

type mergeHeap []mergeCursor

// less orders cursors by their head hit under the canonical
// (score descending, ID ascending) ordering.
func (h mergeHeap) less(a, b int) bool {
	x, y := h[a].list[h[a].pos], h[b].list[h[b].pos]
	if x.Score != y.Score {
		return x.Score > y.Score
	}
	return x.ID < y.ID
}

// siftDown restores the heap property below i.
func (h mergeHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
