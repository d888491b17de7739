//go:build amd64

package flat

// useDotTileAsm gates the AVX2 multi-query micro-kernels. It is a
// variable (not a constant) so the tile tests can force the pure-Go
// kernels and prove both paths produce bit-identical scores.
var useDotTileAsm = x86HasAVX2()

// dotTile16x4 scores 4 contiguous query rows (q, 4×16 floats) against
// nr = len(p)/16 contiguous data rows, writing out[j*nr+r] =
// p_row(r)·q_row(j). The register blocking is 4 queries × 2 rows: each
// loop iteration loads two data rows once and reuses them across all
// four queries' accumulator chains. Scores are bit-identical to
// dotRange16: the 4-wide vertical multiply/add keeps lane k equal to
// the scalar kernel's s_k, the horizontal reduction adds them as
// (s0+s1)+(s2+s3) with plain (unfused) IEEE operations, and one
// trailing + 0 per score turns the −0 a product-started chain can end
// on into the +0 chain's +0. It stands beside dotTile4 because
// small-hot serves d = 16, where it sweeps 20 000 rows for 8 queries in
// 256 µs to dotTile4's 284.
//
//go:noescape
func dotTile16x4(p, q, out []float64)

// dotTile4 is the any-dimension variant (d ≥ 4): 4 contiguous query
// rows of d floats against nr = len(out)/4 contiguous data rows, the
// same 4 queries × 2 rows blocking with d walked in 4-double chunks and
// the d mod 4 trailing elements folded into lane 0 — dotRangeGeneric's
// chains.
//
//go:noescape
func dotTile4(p []float64, d int, q, out []float64)

// dotRows4 scores q against four rows of at least len(q) ≥ 4 floats,
// each at its own address: out[j] = r_j·q, dotRangeGeneric's chain —
// dotTile4's one-row body with q as the row and the four rows as its
// queries.
//
//go:noescape
func dotRows4(q, r0, r1, r2, r3 []float64, out *[4]float64)

// skipBelow is skipBelowGeneric in AVX2, one compare per 4 scores.
//
//go:noescape
func skipBelow(buf []float64, thr float64, unsigned bool) int

// x86HasAVX2 reports whether the CPU and OS support AVX2 (CPUID leaf 7
// EBX bit 5, plus OSXSAVE with YMM state enabled via XGETBV).
func x86HasAVX2() bool

// useOctetAsm gates the AVX-512 octet micro-kernel, dotTile8. Like
// useDotTileAsm it is a variable so the tile tests can run every tier —
// the quads included — on an AVX-512 machine.
var useOctetAsm = x86HasAVX512F()

// dotTile8 scores 8 contiguous query rows of d ≥ 4 floats (q) against
// nr = len(out)/8 contiguous data rows (p): out[j*nr+r] =
// p_row(r)·q_row(j), dotRangeGeneric's chain per (row, query) as in
// dotTile4, 8 queries × 2 rows per iteration. It first packs the octet
// into pack, which must hold exactly octetPackLen(d) floats.
//
//go:noescape
func dotTile8(p []float64, d int, q, pack, out []float64)

// x86HasAVX512F reports whether the CPU and OS support AVX-512F with the
// register file dotTile8 uses: CPUID leaf 7 EBX bit 16, plus OSXSAVE
// with XCR0 enabling the XMM, YMM, opmask, upper-ZMM and Z16–Z31 state
// (XCR0 & 0xE6 = 0xE6).
func x86HasAVX512F() bool
