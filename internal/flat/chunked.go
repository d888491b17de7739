package flat

import "sync/atomic"

// chunkRows is the row capacity of one storage chunk: a multiple of the
// kernels' blockRows, so a block-aligned scan never sees a block
// straddle two chunks, and a power of two, so locating a row is a shift
// and a mask.
const chunkRows = 4 * blockRows

// chunked is the row container under Store, Store32 and StoreI8 (and
// under their norm columns, at width 1): rows are packed width elements
// apiece into chunks of chunkRows rows. Every chunk but the last — the
// open chunk — is full and never written again, so a container made by
// share holds the same chunk memory as its parent and a write costs the
// rows it adds, not the rows already held.
//
// The open chunk grows the way append grows a slice, up to the chunk
// size, and rows are appended in place into its spare capacity. That is
// safe beside readers of an older container sharing the chunk: they are
// bounded by their own row count and never look past it. What must not
// happen is two containers both appending into one chunk's spare
// capacity, so at most one of them owns it (see share); the others copy
// the open chunk — one chunk, never the store — before their first
// append.
type chunked[T any] struct {
	width  int   // elements per row
	n      int   // rows held
	chunks [][]T // len(chunks[i]) is the elements held; all but the last hold chunkRows rows
	// lent reports that the open chunk's spare capacity belongs to
	// another container; aliased, that some chunk is reachable from
	// another container at all. Atomic because share sets both on the
	// parent, which several goroutines may be sharing from at once.
	lent    atomic.Bool
	aliased atomic.Bool
}

// row returns row i as a view with no spare capacity.
func (c *chunked[T]) row(i int) []T {
	off := (i % chunkRows) * c.width
	return c.chunks[i/chunkRows][off : off+c.width : off+c.width]
}

// at returns the first element of row i — the element itself in a
// width-1 column.
func (c *chunked[T]) at(i int) T {
	return c.chunks[i/chunkRows][(i%chunkRows)*c.width]
}

// span returns the chunk holding row lo and the chunk-local row bounds
// [l, h) of the leading part of rows [lo, hi) that lies inside it. The
// scan driver loops over span to hand every kernel a contiguous piece.
func (c *chunked[T]) span(lo, hi int) (chunk []T, l, h int) {
	ci := lo / chunkRows
	base := ci * chunkRows
	return c.chunks[ci], lo - base, min(hi-base, chunkRows)
}

// contiguous returns rows [lo, hi) as one slice, or nil when they
// straddle a chunk edge.
func (c *chunked[T]) contiguous(lo, hi int) []T {
	chunk, l, h := c.span(lo, hi)
	if h-l != hi-lo {
		return nil
	}
	return chunk[l*c.width : h*c.width]
}

// share makes dst a container of c's rows over c's chunks. The open
// chunk's spare capacity passes to dst if c still owned it; c itself,
// and any later share of c, will copy the open chunk before appending,
// so containers shared from one parent never write over each other.
func (c *chunked[T]) share(dst *chunked[T]) {
	dst.width, dst.n = c.width, c.n
	dst.chunks = append(make([][]T, 0, len(c.chunks)+1), c.chunks...)
	dst.lent.Store(c.lent.Swap(true))
	dst.aliased.Store(true)
	c.aliased.Store(true)
}

// grow extends the container by up to want rows — as many as the open
// chunk has room for, at least one — and returns their storage for the
// caller to fill. Callers loop until they have placed every row.
func (c *chunked[T]) grow(want int) []T {
	full := chunkRows * c.width
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == full {
		c.chunks = append(c.chunks, nil)
		c.lent.Store(false) // a fresh chunk is nobody else's
		last++
	}
	open := c.chunks[last]
	k := min(want, (full-len(open))/c.width)
	need := len(open) + k*c.width
	if need > cap(open) || c.lent.Load() {
		newCap := cap(open)
		if need > newCap {
			newCap = min(full, max(need, 2*newCap))
		}
		open = append(make([]T, 0, newCap), open...)
		c.lent.Store(false)
	}
	c.chunks[last] = open[:need]
	c.n += k
	return open[need-k*c.width : need]
}

// reset empties the container, adopting the given row width. The first
// chunk's backing array is kept when no other container can reach it,
// so a pooled store refilled with about the same rows allocates nothing.
func (c *chunked[T]) reset(width int) {
	c.width, c.n = width, 0
	if len(c.chunks) > 0 && !c.aliased.Load() {
		c.chunks[0] = c.chunks[0][:0]
		clear(c.chunks[1:])
		c.chunks = c.chunks[:1]
		return
	}
	c.chunks = nil
	c.lent.Store(false)
	c.aliased.Store(false)
}

// sharedRows returns how many leading rows of c live in the same memory
// as p's: what a write building c from p did not have to copy.
func (c *chunked[T]) sharedRows(p *chunked[T]) int {
	n := 0
	for i := 0; i < len(c.chunks) && i < len(p.chunks); i++ {
		a, b := c.chunks[i], p.chunks[i]
		if len(a) == 0 || len(b) == 0 || &a[0] != &b[0] {
			break
		}
		n += min(len(a), len(b)) / c.width
	}
	return n
}

// capElems returns the allocated capacity in elements, the open chunk's
// unused tail included.
func (c *chunked[T]) capElems() int {
	n := 0
	for _, ch := range c.chunks {
		n += cap(ch)
	}
	return n
}
