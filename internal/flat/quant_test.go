package flat

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// withQuantAsm runs fn under both settings of the asm dispatch gate
// (when the asm kernels exist at all), restoring the ambient value.
func withQuantAsm(t *testing.T, fn func(t *testing.T, asm bool)) {
	saved := useQuantAsm
	defer func() { useQuantAsm = saved }()
	useQuantAsm = false
	t.Run("go", func(t *testing.T) { fn(t, false) })
	if !saved {
		return
	}
	useQuantAsm = true
	t.Run("asm", func(t *testing.T) { fn(t, true) })
}

// topKFromScores is an independent reference top-k: full sort by
// (effective score descending, index ascending), truncated to k.
func topKFromScores(scores []float64, k int, unsigned bool) []Hit {
	hits := make([]Hit, len(scores))
	for i, v := range scores {
		if unsigned && v < 0 {
			v = -v
		}
		hits[i] = Hit{Index: i, Score: v}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Index < hits[j].Index
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// quantGridDims and quantGridNs are the equivalence grid of the quantized
// kernels: dimensions below, at, between and above the 8-float and
// 16-code chunk sizes (so every tail length and the padded last chunk
// occur), and row counts around the kernels' 4-row passes, the scan
// block and the 1024-row storage chunk.
var (
	quantGridDims = []int{1, 7, 8, 15, 16, 17, 24, 31, 32, 33, 40, 48, 64, 100, 128, 257}
	quantGridNs   = []int{1, 2, 3, 4, 5, 255, 256, 257, 1023, 1024, 1025, 2049}
)

// quantGridRanges are the [lo, hi) pieces of an n-row store one grid
// cell scores: everything, an unaligned interior, every short length
// (the 1–3 row kernel tails, with and without a 4-row pass before
// them), and pieces that start mid-chunk and cross the storage chunk
// edge, so span hands the kernels two parts.
func quantGridRanges(n int) [][2]int {
	rs := [][2]int{{0, n}}
	if n >= 3 {
		rs = append(rs, [2]int{1, n - 1})
	}
	for w := 1; w <= 7 && n/2+w <= n; w++ {
		rs = append(rs, [2]int{n / 2, n/2 + w})
	}
	if n > chunkRows {
		rs = append(rs, [2]int{chunkRows - 5, min(n, chunkRows+6)}, [2]int{chunkRows - 1, n})
	}
	return rs
}

type namedStore struct {
	name string
	fs   *Store
}

// quantGridStores are the row sets of one (n, d) cell: Gaussian rows,
// rows of ±1 only (every int8 code is ±127, the largest sums the
// integer kernel can see) and the all-zero store (scale 0; 0·Inf and
// 0·NaN in every float lane).
func quantGridStores(t *testing.T, rng *xrand.RNG, n, d int) []namedStore {
	signs, zeros := make([]vec.Vector, n), make([]vec.Vector, n)
	for i := range signs {
		signs[i], zeros[i] = vec.New(d), vec.New(d)
		for j := range signs[i] {
			signs[i][j] = float64(2*rng.Intn(2) - 1)
		}
	}
	out := []namedStore{{name: "gauss"}, {name: "max"}, {name: "zero"}}
	for i, vs := range [][]vec.Vector{randomVecs(rng, n, d), signs, zeros} {
		fs, err := FromVectors(vs)
		if err != nil {
			t.Fatal(err)
		}
		out[i].fs = fs
	}
	return out
}

// quantGridQueries are the queries of one cell: Gaussian, ±1 only, and
// Gaussians with a NaN, with both infinities, with negative zeros, and
// with all of them at once, planted at positions spread over the row.
func quantGridQueries(rng *xrand.RNG, d int) []vec.Vector {
	signs := vec.New(d)
	for j := range signs {
		signs[j] = float64(2*rng.Intn(2) - 1)
	}
	qs := []vec.Vector{vec.Vector(rng.NormalVec(d)), signs}
	negZero := math.Copysign(0, -1)
	for _, plant := range [][]float64{
		{math.NaN()},
		{math.Inf(1), math.Inf(-1)},
		{negZero, negZero, negZero},
		{math.NaN(), math.Inf(1), negZero, math.Inf(-1)},
	} {
		q := vec.Vector(rng.NormalVec(d))
		for i, x := range plant {
			q[(i*d/len(plant)+rng.Intn(d))%d] = x
		}
		qs = append(qs, q)
	}
	allNegZero := vec.New(d)
	for j := range allNegZero {
		allNegZero[j] = negZero
	}
	return append(qs, allNegZero)
}

// sameScoreBits is the kernels' equivalence: the same float64 bit
// pattern, or NaN on both sides. Which sign and payload the sum of two
// different NaNs keeps (0·Inf meeting a query's NaN) is the first
// operand's on x86, and which operand comes first in the Go kernels is
// the register allocator's choice, not the source's. Acc.Offer rejects
// every NaN score, so those bits never leave the scan.
func sameScoreBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// runQuantAsmGrid checks, on every cell of the grid, that the tier
// build makes of a store scores every range with the asm dispatch on
// exactly — sameScoreBits — as the pure-Go kernels score it.
func runQuantAsmGrid(t *testing.T, seed uint64, build func(fs *Store) func(q vec.Vector, lo, hi int, out []float64) error) {
	if !useQuantAsm {
		t.Skip("no asm kernels on this machine")
	}
	saved := useQuantAsm
	defer func() { useQuantAsm = saved }()
	rng := xrand.New(seed)
	for _, d := range quantGridDims {
		for _, n := range quantGridNs {
			queries := quantGridQueries(rng, d)
			for _, st := range quantGridStores(t, rng, n, d) {
				dotRange := build(st.fs)
				want := make([]float64, n)
				got := make([]float64, n)
				for qi, q := range queries {
					useQuantAsm = false
					if err := dotRange(q, 0, n, want); err != nil {
						t.Fatal(err)
					}
					useQuantAsm = true
					for _, r := range quantGridRanges(n) {
						lo, hi := r[0], r[1]
						if err := dotRange(q, lo, hi, got[:hi-lo]); err != nil {
							t.Fatal(err)
						}
						for i, g := range got[:hi-lo] {
							if w := want[lo+i]; !sameScoreBits(g, w) {
								t.Fatalf("d=%d n=%d %s query %d range [%d, %d) row %d: asm %v (%x) != go %v (%x)",
									d, n, st.name, qi, lo, hi, lo+i, g, math.Float64bits(g), w, math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	}
}

// TestStore32AsmMatchesGo proves the AVX2 f32 kernel and the pure-Go
// chain produce bit-identical widened scores at every dimension: with
// the asm off Store32.dotRange is dot32RangeGeneric, the one reference,
// at every d (and d < 8 stays on it with the asm on).
func TestStore32AsmMatchesGo(t *testing.T) {
	runQuantAsmGrid(t, 7, func(fs *Store) func(vec.Vector, int, int, []float64) error {
		return NewStore32(fs).DotRange
	})
}

// TestStoreI8AsmMatchesGo is the int8 twin: exact integer accumulation
// means the kernels must agree bit for bit, whatever the padded last
// chunk of a row reads past it.
func TestStoreI8AsmMatchesGo(t *testing.T) {
	runQuantAsmGrid(t, 8, func(fs *Store) func(vec.Vector, int, int, []float64) error {
		return NewStoreI8(fs).DotRange
	})
}

// TestStore32Accuracy bounds the f32 tier's score error against the
// exact f64 kernel: relative to ‖p‖·‖q‖ the error must stay within
// d·2⁻²³, twice the ≈ d·2⁻²⁴ a float32 dot of length d can drift.
func TestStore32Accuracy(t *testing.T) {
	rng := xrand.New(9)
	for _, d := range []int{5, 8, 16, 24} {
		n := 500
		vs := randomVecs(rng, n, d)
		fs, err := FromVectors(vs)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStore32(fs)
		q := vec.Vector(rng.NormalVec(d))
		exact := make([]float64, n)
		approx := make([]float64, n)
		if err := fs.DotRange(q, 0, n, exact); err != nil {
			t.Fatal(err)
		}
		if err := s.DotRange(q, 0, n, approx); err != nil {
			t.Fatal(err)
		}
		qn := vec.Norm(q)
		for i := range exact {
			tol := float64(d) * 0x1p-23 * fs.Norm(i) * qn
			if diff := math.Abs(exact[i] - approx[i]); diff > tol {
				t.Fatalf("d=%d row %d: f32 %v vs f64 %v (diff %g > tol %g)",
					d, i, approx[i], exact[i], diff, tol)
			}
		}
	}
}

// TestStoreI8Quantization pins down the symmetric scheme's properties:
// determinism under rebuild, bounded per-element error, saturation of
// non-finite inputs, and the zero-store degenerate case.
// TestQuantizeI8MatchesRound holds quantizeI8 to math.Round clamped to
// ±127 — the codes every stored segment was written with — at every
// half-integer of the range and its neighbours, at the largest value
// below a half, at signed zeros, subnormals and non-finite values, and at
// random quotients.
func TestQuantizeI8MatchesRound(t *testing.T) {
	ref := func(x, scale float64) int8 {
		if scale == 0 {
			return 0
		}
		v := math.Round(x / scale)
		switch {
		case v > 127:
			return 127
		case v < -127:
			return -127
		case math.IsNaN(v):
			return 0
		}
		return int8(v)
	}
	check := func(x, scale float64) {
		if got, want := quantizeI8(x, scale), ref(x, scale); got != want {
			t.Fatalf("quantizeI8(%v, %v) = %d, math.Round gives %d", x, scale, got, want)
		}
	}
	for k := -130; k <= 130; k++ {
		for _, h := range []float64{0, 0.5, -0.5} {
			x := float64(k) + h
			check(x, 1)
			check(math.Nextafter(x, math.Inf(1)), 1)
			check(math.Nextafter(x, math.Inf(-1)), 1)
		}
	}
	for _, x := range []float64{0.49999999999999994, -0.49999999999999994, 0, math.Copysign(0, -1),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, scale := range []float64{0, 5e-324, 1e-300, 0.01, 1, 1e300} {
			check(x, scale)
		}
	}
	rng := xrand.New(42)
	for i := 0; i < 1000000; i++ {
		check(rng.Normal()*math.Ldexp(1, rng.Intn(16)-8), math.Ldexp(1+rng.Float64(), rng.Intn(8)-6))
	}
}

func TestStoreI8Quantization(t *testing.T) {
	rng := xrand.New(13)
	fs, err := FromVectors(randomVecs(rng, 300, 16))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreI8(fs)
	if s2 := NewStoreI8(fs); !s.Equal(s2) {
		t.Fatal("requantizing the same store changed codes or scale")
	}
	// Per-element reconstruction error is at most scale/2.
	for i := 0; i < fs.Len(); i++ {
		row := fs.Row(i)
		for j, c := range s.Row(i) {
			back := float64(c) * s.scale
			if diff := math.Abs(back - row[j]); diff > s.scale/2+1e-12 {
				t.Fatalf("row %d dim %d: dequantized %v vs %v (err %g > scale/2 %g)",
					i, j, back, row[j], diff, s.scale/2)
			}
		}
	}
	// Candidate quality: int8 top-50 must contain the exact top-10 for
	// a well-conditioned workload (a check of the dequantized scores
	// alone; an exact answer re-ranks the certified candidates instead).
	for trial := 0; trial < 20; trial++ {
		q := vec.Vector(rng.NormalVec(16))
		exact, err := fs.TopK(q, 10, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := s.TopK(q, 50, false, 1)
		if err != nil {
			t.Fatal(err)
		}
		have := map[int]bool{}
		for _, h := range cands {
			have[h.Index] = true
		}
		missed := 0
		for _, h := range exact {
			if !have[h.Index] {
				missed++
			}
		}
		if missed > 1 {
			t.Fatalf("trial %d: int8 top-50 missed %d of exact top-10", trial, missed)
		}
	}
	// Degenerate stores.
	zero, err := FromVectors([]vec.Vector{{0, 0, 0}, {0, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	zs := NewStoreI8(zero)
	if zs.Scale() != 0 {
		t.Fatalf("all-zero store scale = %v, want 0", zs.Scale())
	}
	if hits, err := zs.TopK(vec.Vector{1, 2, 3}, 1, false, 1); err != nil || len(hits) != 1 || hits[0].Score != 0 {
		t.Fatalf("zero-store TopK = %v, %v", hits, err)
	}
	if quantizeI8(math.NaN(), 1) != 0 {
		t.Fatal("NaN must quantize to 0")
	}
	if quantizeI8(math.Inf(1), 1) != 127 || quantizeI8(math.Inf(-1), 1) != -127 {
		t.Fatal("infinities must saturate")
	}
}

// TestStore32RoundTrip checks NewStore32/ToStore and the FLATBLK2
// decoder: decoding appendStore32's block must reproduce data and shape
// bit for bit.
func TestStore32RoundTrip(t *testing.T) {
	rng := xrand.New(15)
	for _, n := range []int{0, 1, 37} {
		fs, err := FromVectors(randomVecs(rng, n, 16))
		if err != nil && n > 0 {
			t.Fatal(err)
		}
		if n == 0 {
			fs, err = New(16)
			if err != nil {
				t.Fatal(err)
			}
		}
		s := NewStore32(fs)
		buf := appendStore32(nil, s)
		dec, used, err := DecodeStore32(buf)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if used != len(buf) {
			t.Fatalf("n=%d: consumed %d of %d bytes", n, used, len(buf))
		}
		if dec.Len() != s.Len() || dec.Dim() != s.Dim() {
			t.Fatalf("n=%d: shape (%d,%d) != (%d,%d)", n, dec.Len(), dec.Dim(), s.Len(), s.Dim())
		}
		if !sameStore32(dec, s) {
			t.Fatalf("n=%d: decoded rows differ", n)
		}
		// Binary32 rows widen and round back losslessly through ToStore.
		wide, err := dec.ToStore()
		if err != nil {
			t.Fatal(err)
		}
		back := NewStore32(wide)
		if !sameStore32(back, s) {
			t.Fatalf("n=%d: ToStore round trip changed the rows", n)
		}
	}
}

// appendStore32 appends s's FLATBLK2 block to buf, as segments of f32
// collections held it: the encoder, which only these tests still need.
func appendStore32(buf []byte, s *Store32) []byte {
	start := len(buf)
	buf = append(buf, block32Magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Len()))
	for i := range s.Len() {
		for _, v := range s.Row(i) {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// sameStore32 reports whether two f32 stores hold bit-identical rows.
func sameStore32(a, b *Store32) bool {
	if a.Len() != b.Len() || a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		for j, x := range a.Row(i) {
			if math.Float32bits(x) != math.Float32bits(b.Row(i)[j]) {
				return false
			}
		}
	}
	return true
}

// TestStoreI8RoundTrip checks the FLATBLK3 codec, including the scale.
func TestStoreI8RoundTrip(t *testing.T) {
	rng := xrand.New(16)
	fs, err := FromVectors(randomVecs(rng, 37, 16))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStoreI8(fs)
	buf := s.AppendBinary(nil)
	if len(buf) != s.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), s.EncodedSize())
	}
	dec, used, err := DecodeStoreI8(buf)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("consumed %d of %d bytes", used, len(buf))
	}
	if !dec.Equal(s) {
		t.Fatal("decoded store differs from encoded")
	}
}

// TestQuantCodecCorruption flips every byte of valid encodings: each
// mutation must fail decoding (almost always the checksum) and never
// panic or yield a store silently.
func TestQuantCodecCorruption(t *testing.T) {
	rng := xrand.New(17)
	fs, err := FromVectors(randomVecs(rng, 5, 8))
	if err != nil {
		t.Fatal(err)
	}
	buf32 := appendStore32(nil, NewStore32(fs))
	buf8 := NewStoreI8(fs).AppendBinary(nil)
	for i := range buf32 {
		mut := append([]byte(nil), buf32...)
		mut[i] ^= 0x40
		if _, _, err := DecodeStore32(mut); err == nil {
			t.Fatalf("f32: flipping byte %d went undetected", i)
		}
	}
	for i := range buf8 {
		mut := append([]byte(nil), buf8...)
		mut[i] ^= 0x40
		if _, _, err := DecodeStoreI8(mut); err == nil {
			t.Fatalf("int8: flipping byte %d went undetected", i)
		}
	}
	// Truncations of every length must error cleanly too.
	for i := 0; i < len(buf32); i++ {
		if _, _, err := DecodeStore32(buf32[:i]); err == nil {
			t.Fatalf("f32: truncation to %d bytes went undetected", i)
		}
	}
	for i := 0; i < len(buf8); i++ {
		if _, _, err := DecodeStoreI8(buf8[:i]); err == nil {
			t.Fatalf("int8: truncation to %d bytes went undetected", i)
		}
	}
}

// FuzzStore32Decode feeds arbitrary bytes to the FLATBLK2 decoder: it
// must never panic, and anything it accepts must re-encode to an
// equivalent store.
func FuzzStore32Decode(f *testing.F) {
	rng := xrand.New(18)
	fs, _ := FromVectors(randomVecs(rng, 3, 8))
	f.Add(appendStore32(nil, NewStore32(fs)))
	empty, _ := New(4)
	f.Add(appendStore32(nil, NewStore32(empty)))
	f.Add([]byte("FLATBLK2garbage"))
	// The block of an f32 segment in the server's legacy data-dir
	// fixture, followed by the rest of that segment.
	seg, err := os.ReadFile("../server/testdata/legacy-f32/data/exact32/segment-00000000000000000001.seg")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg[bytes.Index(seg, block32Magic[:]):])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, used, err := DecodeStore32(data)
		if err != nil {
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", used, len(data))
		}
		re := appendStore32(nil, s)
		s2, _, err := DecodeStore32(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if s2.Len() != s.Len() || s2.Dim() != s.Dim() {
			t.Fatalf("re-decode changed shape")
		}
		if !sameStore32(s2, s) {
			t.Fatalf("re-decode changed the rows")
		}
	})
}

// FuzzInt8Decode is the FLATBLK3 twin.
func FuzzInt8Decode(f *testing.F) {
	rng := xrand.New(19)
	fs, _ := FromVectors(randomVecs(rng, 3, 8))
	f.Add(NewStoreI8(fs).AppendBinary(nil))
	f.Add([]byte("FLATBLK3garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, used, err := DecodeStoreI8(data)
		if err != nil {
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", used, len(data))
		}
		re := s.AppendBinary(nil)
		s2, _, err := DecodeStoreI8(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !s2.Equal(s) {
			t.Fatalf("re-decode changed store")
		}
	})
}

// BenchmarkFlatTopKTier measures the 100k-row top-10 scan per precision
// tier at the dimensions the benchmark workloads serve. SetBytes records
// the *logical* f64 working set for every tier, so reported MB/s ratios
// equal wall-clock speedups (the ISSUE's bytes-per-second framing). The
// rerank variants include the full candidate-then-verify cost the
// serving layer pays: f32's scan of 4k candidates, int8's certified scan
// (a tile of one), plus exact f64 re-scoring of the survivors. The d=16 names carry no dimension, as
// they did when d=16 was the only one, so cmd/benchcmp still pairs them
// across that change.
func BenchmarkFlatTopKTier(b *testing.B) {
	for _, d := range []int{16, 32, 64} {
		benchFlatTopKTier(b, d)
	}
}

func benchFlatTopKTier(b *testing.B, d int) {
	rng := xrand.New(20)
	n, k, overfetch := 100000, 10, 4 // f32's
	fs, err := FromVectors(randomVecs(rng, n, d))
	if err != nil {
		b.Fatal(err)
	}
	s32 := NewStore32(fs)
	s8 := NewStoreI8(fs)
	q := vec.Vector(rng.NormalVec(d))
	logical := int64(n * d * 8)
	rerank := func(hits []Hit) []Hit {
		var one [1]float64
		for i, h := range hits {
			if err := fs.DotRange(q, h.Index, h.Index+1, one[:]); err != nil {
				b.Fatal(err)
			}
			hits[i].Score = one[0]
		}
		a := NewAcc(k)
		for _, h := range hits {
			a.Offer(h.Index, h.Score)
		}
		return a.Hits()
	}
	name := func(tier string) string {
		if d == 16 {
			return fmt.Sprintf("%s/n=%d", tier, n)
		}
		return fmt.Sprintf("%s/n=%d/d=%d", tier, n, d)
	}
	b.Run(name("f64"), func(b *testing.B) {
		b.SetBytes(logical)
		for i := 0; i < b.N; i++ {
			if _, err := fs.TopK(q, k, false, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name("f32"), func(b *testing.B) {
		b.SetBytes(logical)
		for i := 0; i < b.N; i++ {
			if _, err := s32.TopK(q, k, false, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name("f32rerank"), func(b *testing.B) {
		b.SetBytes(logical)
		for i := 0; i < b.N; i++ {
			hits, err := s32.TopK(q, k*overfetch, false, 1)
			if err != nil {
				b.Fatal(err)
			}
			rerank(hits)
		}
	})
	b.Run(name("int8rerank"), func(b *testing.B) {
		qs, err := FromVectors([]vec.Vector{q})
		if err != nil {
			b.Fatal(err)
		}
		sc := new(TileScratch)
		b.SetBytes(logical)
		for i := 0; i < b.N; i++ {
			accs := sc.Accs(1, k)
			if err := s8.View().ScanMulti(context.Background(), qs, 0, 1, accs, sc, ScanOpts{}); err != nil {
				b.Fatal(err)
			}
			a := NewAcc(k)
			fs.OfferRows(nil, &a, q, sc.Candidates(0, &accs[0]), nil, false)
		}
	})
}
