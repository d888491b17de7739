//go:build amd64

package flat

import "testing"

// TestQuantDispatchServesBenchmarkDims pins the gate both dotRange
// switches branch on: on an AVX2 machine every dimension a benchmark
// workload serves must select an assembly kernel on both quantized
// tiers. A gate narrowed to particular dimensions — as `d == 16 &&` was —
// sends the others back to the scalar loops with every answer
// unchanged, so only this assertion or a benchmark would notice.
func TestQuantDispatchServesBenchmarkDims(t *testing.T) {
	if !x86HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	if !useQuantAsm {
		t.Fatal("useQuantAsm is off on an AVX2 machine")
	}
	for _, d := range []int{16, 32, 64} {
		if !quantSIMD(d, i8Chunk) {
			t.Errorf("int8 d=%d scans through the Go kernel", d)
		}
		if !quantSIMD(d, f32Chunk) {
			t.Errorf("f32 d=%d scans through the Go kernel", d)
		}
	}
}
