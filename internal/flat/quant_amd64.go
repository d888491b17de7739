//go:build amd64

package flat

// useQuantAsm gates the AVX2 quantized-store range kernels (f32 at
// twice the f64 tile kernels' lanes, int8 via VPMADDWD); quantSIMD says
// which dimensions they serve. A variable — not a constant — so the
// quant tests can force the pure-Go chains and prove both paths produce
// bit-identical scores.
var useQuantAsm = x86HasAVX2()

// dot32Range is the f32 kernel at every d ≥ 8: dot32RangeGeneric's
// chain bit for bit — a zero-initialised 8-lane accumulator, the d mod 8
// trailing elements added into lane 0 one at a time, the 8→4→1 fold.
// No load leaves its row.
//
//go:noescape
func dot32Range(p []float32, d int, q []float32, out []float64)

// dotI8Range is the int8 kernel at every d ≥ 16: len(out) rows of d
// codes in p against the int16-widened query codes q, zero-padded to
// len(q) = 16·⌈d/16⌉. Per 16-code chunk of a row VPMOVSXBW sign-extends
// the codes and VPMADDWD forms exact int32 pair sums, VPADDD-accumulated;
// VCVTDQ2PD+VMULPD widen the exact int32 dots and apply the combined
// scale. Integer accumulation is order free and float64(int32) is
// exact, so the single multiply matches the scalar loop's
// float64(acc)·combined bit for bit. When 16 ∤ d a row's last chunk
// reads up to 15 codes of the next row (times the zero padding): the
// caller must keep the row after p inside the allocation.
//
//go:noescape
func dotI8Range(p []int8, d int, q []int16, combined float64, out []float64)

// useI8TileAsm gates the AVX-512 VNNI int8 tile kernel, dotI8Tile, at
// every d ≥ 4 (i8TileSIMD). A variable so the tests can run the AVX2
// and Go tiers on a machine that has it.
var useI8TileAsm = x86HasAVX512F() && x86HasAVX512VNNIBW()

// dotI8Tile scores the n ≤ blockRows rows of d ≥ 4 codes in p against a
// tile of nq = len(floors) ≤ maxTileQ queries: the int32 dot of row r
// and query j goes to dots[j·blockRows + r], and bit r of query j's
// maskWords-word stretch of mask, from word j·maskWords on, is set
// exactly when the dot beats floors[j]: dot > floor, or when unsigned
// |dot| > floor, both read as unsigned (|MinInt32| is 2³¹). The kernel
// stores 16 bits per 16-row group, those past n clear; later words and
// the dots past n are left alone. It reads the rows themselves, whole
// rows per load, and query j's codes from q[j·qstride:], laid out as
// the kernel reads a row (see i8Tile.pack); nbias[j] is −128 times the
// sum of its codes. Every load stays inside p.
//
//go:noescape
func dotI8Tile(p []int8, d, n int, q []int8, qstride int, nbias, floors []int32, unsigned bool, dots []int32, mask []uint64)

// x86HasAVX512VNNIBW reports CPUID leaf 7 ECX bit 11 (AVX512_VNNI) and
// EBX bit 30 (AVX512BW).
func x86HasAVX512VNNIBW() bool
