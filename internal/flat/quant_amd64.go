//go:build amd64

package flat

// useQuantAsm gates the AVX2 quantized-store range kernels (f32 at
// twice the f64 tile kernels' lanes, int8 via VPMADDWD); quantSIMD says
// which dimensions they serve. A variable — not a constant — so the
// quant tests can force the pure-Go chains and prove both paths produce
// bit-identical scores.
var useQuantAsm = x86HasAVX2()

// dot32Range16 scores len(out) contiguous d=16 float32 rows of p
// against the single query q (16 floats, loaded once), widening each
// result to float64. Bit-identical to dot32Range16Go: 8 float32 lanes
// (VMULPS/VADDPS), t_i = s_i + s_{i+4} (VEXTRACTF128+VADDPS), then
// (t0+t1)+(t2+t3) via VHADDPS×2 and a single VCVTSS2SD.
//
//go:noescape
func dot32Range16(p, q []float32, out []float64)

// dot32Range8 is the d=8 variant: one 8-lane multiply per row, the
// shared 8→4→1 reduction.
//
//go:noescape
func dot32Range8(p, q []float32, out []float64)

// dot32Range is the any-dimension kernel (d ≥ 8): dot32RangeGeneric's
// chain bit for bit — a zero-initialised 8-lane accumulator, the d mod 8
// trailing elements added into lane 0 one at a time, the shared fold.
// No load leaves its row.
//
//go:noescape
func dot32Range(p []float32, d int, q []float32, out []float64)

// dotI8Range16 scores len(out) contiguous d=16 int8 rows of p against
// the int16-widened query codes q (16 values, loaded once) and
// dequantizes in-register: VPMOVSXBW sign-extends a row, VPMADDWD forms
// exact int32 pair sums, a VPHADDD tree totals four rows at a time, and
// VCVTDQ2PD+VMULPD widen the exact int32 dots and apply the combined
// scale. Integer accumulation is order free and float64(int32) is
// exact, so the single multiply matches the scalar loop's
// float64(acc)·combined bit for bit.
//
//go:noescape
func dotI8Range16(p []int8, q []int16, combined float64, out []float64)

// dotI8Range is the any-dimension kernel (d ≥ 16): dotI8Range16's
// steps per 16-code chunk of a row, VPADDD-accumulated, against q
// zero-padded to len(q) = 16·⌈d/16⌉. When 16 ∤ d a row's last chunk
// reads up to 15 codes of the next row (times the zero padding): the
// caller must keep the row after p inside the allocation.
//
//go:noescape
func dotI8Range(p []int8, d int, q []int16, combined float64, out []float64)
