package flat

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// FuzzDotBatch drives the single-query sweep on every kernel tier — the
// AVX2 four-row dotRows4 sweep and its Go-chain row tail, where the
// machine has AVX2, the Go chain, and dotRange16's row pairs at d = 16 —
// against a naive per-element reference, with the corpus bytes decoded
// as (d ≤ 100, query, row data). The sweep must agree with a naive
// left-to-right sum to a relative 1e-9 and have vec.DotKernel's bits
// exactly (sameScoreBits).
func FuzzDotBatch(f *testing.F) {
	mk := func(d byte, vals ...float64) []byte {
		b := []byte{d}
		for _, v := range vals {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			b = append(b, w[:]...)
		}
		return b
	}
	f.Add(mk(1, 1, 2))
	f.Add(mk(3, 1, 2, 3, 4, 5, 6, 0.5, -0.5, 0))
	f.Add(mk(8, 1, 2, 3, 4, 5, 6, 7, 8, 1, 1, 1, 1, 1, 1, 1, 1))
	f.Add(mk(16, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8,
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1))
	// d = 7 (the byte is d-1): a query and six rows, a full 4-row group
	// and a 2-row tail, each with a 3-element tail.
	ramp := make([]float64, 7*7)
	for i := range ramp {
		ramp[i] = float64(i%9-4) * 0.375
	}
	f.Add(mk(6, ramp...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 1 {
			return
		}
		d := int(raw[0]%100) + 1
		raw = raw[1:]
		vals := make([]float64, 0, len(raw)/8)
		for len(raw) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:8]))
			raw = raw[8:]
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				v = 0 // keep the reference comparison meaningful
			}
			vals = append(vals, v)
		}
		if len(vals) < 2*d {
			return
		}
		q := vec.Vector(vals[:d])
		rows := vals[d:]
		n := len(rows) / d
		if n == 0 {
			return
		}
		vs := make([]vec.Vector, n)
		for i := range vs {
			vs[i] = vec.Vector(rows[i*d : (i+1)*d])
		}
		s, err := FromVectors(vs)
		if err != nil {
			t.Fatalf("FromVectors: %v", err)
		}
		out := make([]float64, n)
		for _, kt := range kernelTiers {
			func() {
				defer kt.use()()
				for i := range out {
					out[i] = math.NaN() // no input is NaN: a row left unscored fails
				}
				if err := s.DotBatch(q, out); err != nil {
					t.Fatalf("DotBatch: %v", err)
				}
				for i := range vs {
					if want := vec.DotKernel(vs[i], q); !sameScoreBits(out[i], want) {
						t.Fatalf("%s tier, d=%d row %d of %d: DotBatch=%g (%#x) vec.DotKernel=%g (%#x)",
							kt.name, d, i, n, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
					}
				}
			}()
		}
		for i := range vs {
			// Tolerance agreement with a naive left-to-right sum.
			var naive, scale float64
			for j := 0; j < d; j++ {
				naive += vs[i][j] * q[j]
				scale += math.Abs(vs[i][j] * q[j])
			}
			tol := 1e-9 * (scale + 1)
			if diff := math.Abs(out[i] - naive); diff > tol && !math.IsNaN(naive) {
				t.Fatalf("row %d: kernel %g vs naive %g (diff %g > tol %g)", i, out[i], naive, diff, tol)
			}
		}
		// TopK must never panic and must stay consistent with DotBatch.
		hits, err := s.TopK(q, 3, false, 1)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		for _, h := range hits {
			if h.Index < 0 || h.Index >= n {
				t.Fatalf("TopK returned out-of-range index %d", h.Index)
			}
			if h.Score != out[h.Index] && !(math.IsNaN(h.Score) && math.IsNaN(out[h.Index])) {
				t.Fatalf("TopK score %g disagrees with DotBatch %g at row %d", h.Score, out[h.Index], h.Index)
			}
		}
	})
}

// FuzzDotTile drives the multi-query tile kernels, on every kernel tier
// the machine has (the pure-Go pair kernel, the AVX2 quads, the AVX-512
// octets), and the single-query kernel against vec.DotKernel: every cell
// of the tile and every DotRange score must have its bits (checkTile),
// and TopKMulti must agree with per-query TopK. Corpus bytes decode as
// (d-1, nq-1, queries, row data), d up to 72 and nq up to 9.
func FuzzDotTile(f *testing.F) {
	mk := func(d, nq int, vals ...float64) []byte {
		b := []byte{byte(d - 1), byte(nq - 1)}
		for _, v := range vals {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
			b = append(b, w[:]...)
		}
		return b
	}
	// ramp is nq queries and three rows (a row pair and the trailing
	// row) of small signed values with both zeros among them.
	ramp := func(d, nq int) []float64 {
		vals := make([]float64, (nq+3)*d)
		for i := range vals {
			vals[i] = float64(i%7-3) * math.Copysign(0.25, float64(i%5)-1.5)
		}
		return vals
	}
	f.Add(mk(2, 1, 1, 2, 3, 4, 5, 6))
	f.Add(mk(8, 4,
		1, 2, 3, 4, 5, 6, 7, 8, -1, -2, -3, -4, -5, -6, -7, -8,
		1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0,
		1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1,
		2, 2, 2, 2, 2, 2, 2, 2))
	f.Add(mk(16, 2,
		1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6, 7, -7, 8, -8,
		1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5))
	f.Add(mk(16, 4, ramp(16, 4)...))
	f.Add(mk(23, 4, ramp(23, 4)...)) // the any-d kernel with a 3-element tail
	f.Add(mk(64, 5, ramp(64, 5)...)) // and with none, plus a leftover query
	f.Add(mk(34, 9, ramp(34, 9)...)) // an octet with a 2-element tail, plus a leftover query
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			return
		}
		d := int(raw[0]%72) + 1
		nq := int(raw[1]%9) + 1
		raw = raw[2:]
		vals := make([]float64, 0, len(raw)/8)
		for len(raw) >= 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[:8]))
			raw = raw[8:]
			if math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				v = 0 // keep magnitudes sane; NaN stays (the kernels must cope)
			}
			vals = append(vals, v)
		}
		if len(vals) < (nq+1)*d {
			return
		}
		qvals := vals[:nq*d]
		rows := vals[nq*d:]
		n := len(rows) / d
		if n == 0 {
			return
		}
		qvecs := make([]vec.Vector, nq)
		for j := range qvecs {
			qvecs[j] = vec.Vector(qvals[j*d : (j+1)*d])
		}
		vs := make([]vec.Vector, n)
		for i := range vs {
			vs[i] = vec.Vector(rows[i*d : (i+1)*d])
		}
		s, err := FromVectors(vs)
		if err != nil {
			t.Fatalf("FromVectors: %v", err)
		}
		qs, err := FromVectors(qvecs)
		if err != nil {
			t.Fatalf("FromVectors(queries): %v", err)
		}
		for _, kt := range kernelTiers {
			func() {
				defer kt.use()()
				defer func() {
					if t.Failed() {
						t.Logf("on the %s tier", kt.name)
					}
				}()
				checkTile(t, s, qs, 0, nq, 0, n)
				k := n%3 + 1
				multi, err := s.TopKMulti(qs, k, false)
				if err != nil {
					t.Fatalf("TopKMulti: %v", err)
				}
				for j := range qvecs {
					single, err := s.TopK(qs.Row(j), k, false, 1)
					if err != nil {
						t.Fatalf("TopK: %v", err)
					}
					if len(multi[j]) != len(single) {
						t.Fatalf("query %d: multi %v != single %v", j, multi[j], single)
					}
					for i := range single {
						if multi[j][i] != single[i] {
							t.Fatalf("query %d: multi %v != single %v", j, multi[j], single)
						}
					}
				}
			}()
		}
	})
}

// FuzzOfferRows holds the candidate verify loop to the masked reference
// scan restricted to the candidates, at k = n (every score visible, each
// with vec.DotKernel's bits) and at a fuzzed k (the threshold skip), on
// the Go pair kernel and, where the machine has it, on the AVX2
// dotRows4. Inputs: d, n, the dead fraction, the candidates' order
// (ascending, descending, shuffled) and count, signed or unsigned, and
// coarse rows of {−1, ±0, 1} so that scores tie across indexes.
func FuzzOfferRows(f *testing.F) {
	f.Add(uint8(6), uint16(40), uint8(80), uint8(2), uint16(33), uint8(3), false, false, uint64(1))
	f.Add(uint8(31), uint16(1500), uint8(0), uint8(2), uint16(240), uint8(9), true, false, uint64(2))
	// d = 1, coarse, descending, k = 1: the top score ties, and the
	// smallest index offered last must win.
	f.Add(uint8(0), uint16(40), uint8(64), uint8(1), uint16(40), uint8(0), false, true, uint64(3))
	f.Add(uint8(32), uint16(2100), uint8(40), uint8(0), uint16(2100), uint8(1), true, true, uint64(4))
	f.Fuzz(func(t *testing.T, dw uint8, nw uint16, deadw, order uint8, mw uint16, kw uint8, unsigned, coarse bool, seed uint64) {
		d, n := int(dw)%40+1, int(nw)%2100+1
		rng := xrand.New(seed)
		vs := randomVecs(rng, n, d)
		if coarse {
			for _, v := range vs {
				for j := range v {
					v[j] = math.Round(v[j])
				}
			}
		}
		s, err := FromVectors(vs)
		if err != nil {
			t.Fatal(err)
		}
		q := vec.Vector(rng.NormalVec(d))
		dead, _ := killRandom(rng, n, float64(deadw)/255)
		rows := rng.Perm(n)
		if order%3 != 2 {
			slices.Sort(rows)
			if order%3 == 1 {
				slices.Reverse(rows)
			}
		}
		rows = rows[:int(mw)%(n+1)]
		// The reference's mask: dead rows and every row not a candidate.
		candidate := make([]bool, n)
		for _, r := range rows {
			candidate[r] = true
		}
		mask := NewTombstones(n)
		for i := 0; i < n; i++ {
			if !candidate[i] || dead.Dead(i) {
				mask.Kill(i)
			}
		}
		saved := useDotTileAsm
		defer func() { useDotTileAsm = saved }()
		for _, asm := range []bool{false, true} {
			if asm && !saved {
				break
			}
			useDotTileAsm = asm
			for _, k := range []int{n, int(kw)%n + 1} {
				a := NewAcc(k)
				scored, stopped := s.OfferRows(nil, &a, q, rows, dead, unsigned)
				if want := n - mask.Count(); stopped || scored != want {
					t.Fatalf("asm=%v k=%d: scored %d (stopped %v), want %d", asm, k, scored, stopped, want)
				}
				for _, h := range a.Hits() {
					want := vec.DotKernel(s.Row(h.Index), q)
					if unsigned {
						want = math.Abs(want)
					}
					if math.Float64bits(h.Score) != math.Float64bits(want) {
						t.Fatalf("asm=%v row %d: %v (%#x), vec.DotKernel %v (%#x)", asm, h.Index, h.Score, math.Float64bits(h.Score), want, math.Float64bits(want))
					}
				}
				if ref := naiveTopKMasked(s, q, k, unsigned, mask); !hitBitsEqual(a.Hits(), ref) {
					t.Fatalf("asm=%v k=%d d=%d n=%d: %v, reference %v", asm, k, d, n, a.Hits(), ref)
				}
			}
		}
	})
}

// fuzzAsmVsGo scores the range [lo, hi) of n rows that the fuzzed words
// a, b select, once with the asm dispatch off and once with it on, and
// requires sameScoreBits row for row.
func fuzzAsmVsGo(t *testing.T, d, n int, a, b uint16, score func(lo, hi int, out []float64)) {
	lo := int(a) % (n + 1)
	hi := lo + int(b)%(n-lo+1)
	want, got := make([]float64, hi-lo), make([]float64, hi-lo)
	useQuantAsm = false
	score(lo, hi, want)
	useQuantAsm = true
	score(lo, hi, got)
	for i := range want {
		if !sameScoreBits(got[i], want[i]) {
			t.Fatalf("d=%d n=%d [%d, %d) row %d: asm %v (%x) != go %v (%x)",
				d, n, lo, hi, lo+i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzDotI8Range drives the AVX2 int8 range kernels against the Go
// kernel on raw codes: every byte value is a code (−128 included, which
// the quantizer never emits), every int16 a query code, any d ≤ 300 —
// so every tail length of the padded last chunk — and any range of up
// to 1100 rows, enough to cross a storage chunk edge. raw is read
// cyclically to fill the rows. Scores must be bit-identical, and the Go
// side's slicing must stay in bounds.
func FuzzDotI8Range(f *testing.F) {
	seed := []byte{127, 129, 0, 1, 255, 128, 64, 3, 200, 17, 90}
	for _, d := range []uint16{16, 17, 31, 32, 33, 40, 47, 257} {
		f.Add(d-1, uint16(4), uint16(0), uint16(5), seed)
		f.Add(d-1, uint16(1029), uint16(1019), uint16(10), seed)
	}
	f.Fuzz(func(t *testing.T, dw, nw, a, b uint16, raw []byte) {
		if !useQuantAsm || len(raw) == 0 {
			t.Skip()
		}
		d, n := int(dw)%300+1, int(nw)%1100+1
		at := 0
		next := func() byte { at++; return raw[(at-1)%len(raw)] }
		s := &StoreI8{dim: d, scale: 1}
		s.codes.width = d
		for s.Len() < n {
			codes := s.codes.grow(n - s.Len())
			for i := range codes {
				codes[i] = int8(next())
			}
		}
		qc, _ := quantizeQueryI8(nil, vec.New(d)) // zeros, padded
		for j := range qc[:d] {
			qc[j] = int16(next()) | int16(next())<<8
		}
		fuzzAsmVsGo(t, d, n, a, b, func(lo, hi int, out []float64) { s.dotRange(qc, 1.0/3, lo, hi, out) })
	})
}

// FuzzDot32Range is the float32 twin: raw bytes are float32 bit patterns
// (NaNs of any payload, infinities, subnormals and signed zeros
// included) for rows and query alike. With the asm off, Store32.dotRange
// is dot32RangeGeneric at every d: the one reference.
func FuzzDot32Range(f *testing.F) {
	seed := []byte{0, 0, 128, 63, 0, 0, 0, 128, 0, 0, 128, 127, 1, 0, 192, 255, 219, 15, 73, 192, 1, 0, 0, 0, 7}
	for _, d := range []uint16{8, 9, 15, 16, 17, 24, 33, 100} {
		f.Add(d-1, uint16(4), uint16(0), uint16(5), seed)
		f.Add(d-1, uint16(1029), uint16(1019), uint16(10), seed)
	}
	f.Fuzz(func(t *testing.T, dw, nw, a, b uint16, raw []byte) {
		if !useQuantAsm || len(raw) == 0 {
			t.Skip()
		}
		d, n := int(dw)%300+1, int(nw)%1100+1
		at := 0
		next := func() float32 {
			var w [4]byte
			for i := range w {
				w[i] = raw[at%len(raw)]
				at++
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(w[:]))
		}
		s := newStore32(d)
		for s.Len() < n {
			rows := s.data.grow(n - s.Len())
			for i := range rows {
				rows[i] = next()
			}
		}
		qf := make([]float32, d)
		for j := range qf {
			qf[j] = next()
		}
		fuzzAsmVsGo(t, d, n, a, b, func(lo, hi int, out []float64) { s.dotRange(qf, lo, hi, out) })
	})
}

// FuzzNormRuns holds a norm-sorted view of up to three runs, swept in
// one order by leading norm, to the store-order scan of the same rows
// (checkRuns: Scan and ScanMulti, hits and counts) on fuzzed rows,
// queries, split point, dead set and k, and both views under per-query
// floors (Acc.SetFloor) to the store-order top k at or above them, never
// scoring more rows than without. It then holds the merges to sorting
// afresh (checkSortedRuns): the runs, the view compacted by the dead
// set, and the view folded by a chunk-sized batch. raw decodes as
// float64 bit patterns — NaNs, infinities, subnormals and values whose
// squares underflow stay: the sort, the norms and the cut must cope —
// read cyclically to fill three queries and the rows; each query's floor
// is beyond every score or the score of a fuzzed row against it, a tie
// at the bar.
func FuzzNormRuns(f *testing.F) {
	word := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint16(3), uint16(40), uint16(17), uint16(2), uint16(0), uint64(0), word(1, -2, 0.5, 3, 0, -0.25, 7))
	f.Add(uint16(15), uint16(700), uint16(300), uint16(9), uint16(2), uint64(0x8421), word(0.5, 0.5, 0.5, 0.5, math.NaN(), 1, 2))
	f.Add(uint16(7), uint16(1400), uint16(1399), uint16(0), uint16(5), ^uint64(0), word(1, math.Inf(1), -1, 0, 3, 1e-9, math.Copysign(0, -1)))
	f.Add(uint16(0), uint16(2), uint16(1), uint16(1), uint16(1), uint64(1), word(2, 2, 2))
	// Every row parallel to every query and the floor one of their
	// scores: the computed norms' product falls an ulp short of it.
	f.Add(uint16(81), uint16(1400), uint16(1399), uint16(74), uint16(5), ^uint64(0), word(0.3, 0.5))
	// Squares that underflow, subnormal norms and subnormal scores.
	f.Add(uint16(1), uint16(600), uint16(200), uint16(0), uint16(4), uint64(0x5), word(1e-170, 0, 1e-180, 1, 5e-324, 1e-310, -2e-160, 3e-200))
	f.Fuzz(func(t *testing.T, dw, nw, split, kw, floorSel uint16, deadBits uint64, raw []byte) {
		if len(raw) < 8 {
			t.Skip()
		}
		d, n := int(dw)%20+1, int(nw)%1500+1
		at := 0
		next := func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[at%(len(raw)/8)*8:]))
			at++
			if a := math.Abs(v); a > 1e15 && !math.IsInf(v, 0) {
				// Products must not overflow: a score that rounds to ±Inf
				// is no longer bounded by the norms.
				v = 0
			}
			return v
		}
		fill := func(vs []vec.Vector) *Store {
			for i := range vs {
				vs[i] = vec.New(d)
				for j := range vs[i] {
					// A scale per row spreads the norms; raw is short.
					vs[i][j] = next() / float64(1+i%11)
				}
			}
			s, err := FromVectors(vs)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		qs, fs := fill(make([]vec.Vector, 3)), fill(make([]vec.Vector, n))
		tailLen := int(split) % min(n, chunkRows)
		dead := NewTombstones(n)
		for i := 0; i < n; i++ {
			if deadBits>>(i%64)&1 == 1 && (i/64)%3 != 1 {
				dead.Kill(i)
			}
		}
		o := ScanOpts{K: int(kw)%(n+2) + 1, Unsigned: floorSel&1 == 1}
		// Query j's floor: beyond every score, or the score of a fuzzed
		// row against it — a tie at the floor, kept or dropped with its
		// row dead; a NaN score floors at 0.
		floors := make([]float64, qs.Len())
		for j := range floors {
			if floorSel>>1%3 == 1 {
				floors[j] = 1e9
				continue
			}
			f := fs.Dot((int(floorSel)+j*int(split))%n, qs.Row(j))
			if o.Unsigned {
				f = math.Abs(f)
			}
			if math.IsNaN(f) {
				f = 0
			}
			floors[j] = f
		}
		for _, tier := range sortedTiers {
			v := extendTo(tier.sorted(prefixOf(fs, n-tailLen)), fs, n-tailLen/2, n)
			ref := tier.rowOrder(fs)
			checkRuns(t, tier.name, v, ref, qs, qs.Len(), o, dead, floors)
			checkRuns(t, tier.name+" store order", ref, ref, qs, qs.Len(), o, dead, floors)
		}
		// Merge equals sort: the stacked view, compacted by dead, and
		// folded by a chunk's batch of its own rows again (ties with
		// every row; the merge, over 1 024 rows, reaches the size class
		// of the base run, at most 1 500), is each time what sorting its
		// rows afresh gives.
		rows := fs.Rows()
		v := extendTo(SortRows(rows[:n-tailLen]), fs, n-tailLen/2, n)
		checkSortedRuns(t, "runs", v, rows, qs, o, dead)
		if live := liveRows(rows, dead); len(live) > 0 {
			checkSortedRuns(t, "compacted", v.Compact(dead), live, qs, o, nil)
		}
		batch := make([]vec.Vector, chunkRows)
		for i := range batch {
			batch[i] = rows[(i*int(split+1))%n]
		}
		folded, copied, ok := v.Extend(batch)
		if !ok || copied != n+chunkRows {
			t.Fatalf("a batch of %d rows onto a tail of %d: folded=%v copied=%d", chunkRows, tailLen, ok, copied)
		}
		checkSortedRuns(t, "folded", folded, append(rows, batch...), qs, o, nil)
	})
}

// FuzzNormTail drives a norm-sorted view through fuzzed writes as a
// normscan shard does: each Extends the view by a batch of rows (pushing
// it as a run, merging it with the newest runs or folding them all into
// the base run, by the stack rule checkStack holds it to), kills or
// revives
// rows, and gathers the dead set from the previous write's
// (GatherDeadSince) — nil while no row is dead. Rows are drawn from
// normPalette: ties, zeros, NaN, ±Inf, subnormals and values whose
// squares underflow; a store holds them in store order, the reference.
// After every write every run is what sorting its rows afresh gives —
// rows, norms, ids and inverse permutation, by their bits — and the
// sweep order a stable sort of the blocks by leading norm
// (checkSortedRuns), and the dead set is GatherDead's, count included; a
// view held at some write answers as the store-order scan did then, and
// keeps its answers and row order to the end. ops is read a byte per
// write: its low two bits pick the write (append a few rows, append many,
// kill, revive or hold) and the rest its size.
func FuzzNormTail(f *testing.F) {
	f.Add(uint8(3), uint64(1), []byte{0x81, 0x42, 0x0e, 0x13, 0x55, 0x7d, 0x22, 0xfe, 0x07})
	f.Add(uint8(1), uint64(7), []byte{0xfd, 0xfd, 0x0a, 0xfd, 0x3f, 0x1b, 0xfd, 0x0e, 0xff, 0x03})
	f.Add(uint8(16), uint64(42), []byte{0xfc, 0x19, 0x0a, 0x40, 0x0b, 0x09, 0xfc, 0xfd, 0x06, 0x0e})
	// A dead tail row in the base run's last, partial word.
	f.Add(uint8(18), uint64(138), []byte("0000200"))
	f.Fuzz(func(t *testing.T, dw uint8, seed uint64, ops []byte) {
		if len(ops) > 64 {
			t.Skip()
		}
		d := int(dw)%17 + 1
		rng := xrand.New(seed)
		draw := func(n int) []vec.Vector {
			vs := make([]vec.Vector, n)
			for i := range vs {
				vs[i] = vec.New(d)
				for j := range vs[i] {
					vs[i][j] = normPalette[rng.Intn(len(normPalette))]
				}
			}
			return vs
		}
		qs, err := FromVectors(draw(3))
		if err != nil {
			t.Fatal(err)
		}
		fs, err := FromVectors(draw(1 + rng.Intn(600)))
		if err != nil {
			t.Fatal(err)
		}
		v := NewNormSorted(fs).View
		dead := make([]bool, fs.Len()) // the store-order dead rows
		var was, gathered *Tombstones  // the last write's, nil while no row is dead
		type heldView struct {
			v     View
			dead  *Tombstones // physical
			perm  []int
			ans   [][]Hit
			write int
		}
		var held []heldView
		answers := func(v View, phys *Tombstones) (out [][]Hit) {
			for j := 0; j < qs.Len(); j++ {
				for _, unsigned := range []bool{false, true} {
					hits, err := v.Scan(context.Background(), qs.Row(j), ScanOpts{K: 5, Unsigned: unsigned, Dead: phys})
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, hits)
				}
			}
			return out
		}
		for w, op := range ops {
			size := int(op >> 2)
			next := v
			switch op & 3 {
			case 0, 1: // append size rows, or 16·size
				if op&3 == 1 {
					size *= 16
				}
				batch := draw(size)
				grown := fs.CloneGrow(size)
				if err := grown.AppendAll(batch); err != nil {
					t.Fatal(err)
				}
				fs = grown
				dead = append(dead, make([]bool, size)...)
				tails := slices.Clone(v.tails)
				ext, copied, folded := v.Extend(batch)
				if size == 0 && (copied != 0 || folded) {
					t.Fatalf("write %d: an empty Extend copied %d rows (folded %v)", w, copied, folded)
				}
				checkStack(t, fmt.Sprintf("write %d", w), v, ext, tails, copied, folded)
				next = ext
			case 2: // kill size rows
				for range size {
					dead[rng.Intn(len(dead))] = true
				}
			default:
				if size&1 == 0 { // revive up to size/2 rows
					for range size / 2 {
						dead[rng.Intn(len(dead))] = false
					}
					break
				}
				held = append(held, heldView{v: v, dead: gathered, perm: physPerm(v), ans: answers(v, gathered), write: w})
				checkRuns(t, fmt.Sprintf("write %d", w), v, fs.View(), qs, qs.Len(), ScanOpts{K: 5}, was, nil)
				continue
			}
			if next.Len() != fs.Len() {
				t.Fatalf("write %d: a view of %d rows over a store of %d", w, next.Len(), fs.Len())
			}
			checkSortedRuns(t, fmt.Sprintf("write %d", w), next, fs.Rows(), qs, ScanOpts{K: 5}, nil)
			var now *Tombstones
			if slices.Contains(dead, true) {
				now = NewTombstones(len(dead))
				for i, x := range dead {
					if x {
						now.Kill(i)
					}
				}
			}
			got, want := next.GatherDeadSince(now, v, was, gathered), next.GatherDead(now)
			if got.Count() != want.Count() || got.Len() != want.Len() || (want != nil && !slices.Equal(got.bits.W, want.bits.W)) {
				t.Fatalf("write %d: patched dead set (%d of %d) is not GatherDead's (%d of %d)", w, got.Count(), got.Len(), want.Count(), want.Len())
			}
			v, was, gathered = next, now, got
		}
		for _, h := range held {
			if !slices.Equal(physPerm(h.v), h.perm) {
				t.Fatalf("the view held at write %d changed its row order", h.write)
			}
			if ans := answers(h.v, h.dead); !slices.EqualFunc(ans, h.ans, hitBitsEqual) {
				t.Fatalf("the view held at write %d answered %v, then %v", h.write, h.ans, ans)
			}
		}
	})
}
