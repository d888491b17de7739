// A Tombstones value marks a subset of a store's rows dead; a scan given
// one (ScanOpts.Dead) answers over the live rows only. A nil
// *Tombstones means "all rows live", so the mutation machinery costs
// nothing until the first delete.
package flat

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

// Tombstones is a bit-packed dead-row set over a store's row space.
// Build it with NewTombstones/Grow/Kill, then treat it as immutable
// once it is shared with readers (the serving layer publishes it inside
// an immutable shard snapshot).
type Tombstones struct {
	bits  *bitvec.Bits
	count int
}

// NewTombstones returns an all-live tombstone set over n rows.
func NewTombstones(n int) *Tombstones {
	return &Tombstones{bits: bitvec.NewBits(n)}
}

// Len returns the number of rows covered (0 for nil).
func (t *Tombstones) Len() int {
	if t == nil {
		return 0
	}
	return t.bits.N
}

// Count returns the number of dead rows (0 for nil).
func (t *Tombstones) Count() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Dead reports whether row i is tombstoned. A nil set has no dead rows.
func (t *Tombstones) Dead(i int) bool {
	if t == nil {
		return false
	}
	return t.bits.W[i>>6]>>(uint(i)&63)&1 == 1
}

// Kill marks row i dead. Idempotent. Callers must not Kill a set that
// is already shared with readers — grow or clone first.
func (t *Tombstones) Kill(i int) {
	if t.bits.Bit(i) == 1 {
		return
	}
	t.bits.SetBit(i, 1)
	t.count++
}

// Grow returns an independent copy covering n rows (n >= Len; the new
// rows are live). A nil receiver yields an all-live set, so the serving
// layer's "first mutation" and "later mutation" paths share one call.
func (t *Tombstones) Grow(n int) *Tombstones {
	nt := NewTombstones(n)
	if t != nil {
		if n < t.bits.N {
			panic(fmt.Sprintf("flat: Tombstones.Grow %d < %d", n, t.bits.N))
		}
		copy(nt.bits.W, t.bits.W)
		nt.count = t.count
	}
	return nt
}

// Gather returns the tombstone set seen through a row permutation given
// as consecutive pieces: out.Dead(i) == t.Dead(perm[i]), perm being the
// pieces end to end. It maps an original-row-space set into a
// norm-sorted view's physical order (View.GatherDead), one piece per
// run.
func (t *Tombstones) Gather(perm ...[]int32) *Tombstones {
	if t == nil {
		return nil
	}
	n := 0
	for _, piece := range perm {
		n += len(piece)
	}
	out := NewTombstones(n)
	i := 0
	for _, piece := range perm {
		for _, p := range piece {
			if t.Dead(int(p)) {
				out.bits.W[i>>6] |= 1 << (uint(i) & 63)
				out.count++
			}
			i++
		}
	}
	return out
}

// DeadIn returns the number of dead rows in [lo, hi). It is the block
// triage of a masked scan: word-level popcounts, so the per-block
// cost is a handful of instructions against hundreds of multiply-adds.
func (t *Tombstones) DeadIn(lo, hi int) int {
	if t == nil || t.count == 0 || lo >= hi {
		return 0
	}
	w := t.bits.W
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if lw == hw {
		return bits.OnesCount64(w[lw] & loMask & hiMask)
	}
	c := bits.OnesCount64(w[lw] & loMask)
	for i := lw + 1; i < hw; i++ {
		c += bits.OnesCount64(w[i])
	}
	return c + bits.OnesCount64(w[hw]&hiMask)
}
