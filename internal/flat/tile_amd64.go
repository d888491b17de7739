//go:build amd64

package flat

// useDotTileAsm gates the AVX2 multi-query micro-kernels. It is a
// variable (not a constant) so the tile tests can force the pure-Go
// kernels and prove both paths produce bit-identical scores.
var useDotTileAsm = x86HasAVX2()

// dotTile4 scores 4 contiguous query rows (q) of d ≥ 4 floats against
// nr = len(out)/4 contiguous data rows (p): out[j*nr+r] =
// p_row(r)·q_row(j). The register blocking is 4 queries × 2 rows, with
// d walked in 4-double chunks and the d mod 4 trailing elements folded
// into lane 0 — dotRangeGeneric's chains.
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
