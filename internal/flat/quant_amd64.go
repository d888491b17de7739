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
