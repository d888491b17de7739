//go:build amd64

package flat

import "testing"

// TestTileDispatchServesBenchmarkDims is the f64 twin of
// TestQuantDispatchServesBenchmarkDims: on an AVX2 machine every
// dimension a benchmark workload serves must send its query quads to a
// micro-kernel. Narrowed back to particular dimensions, the gate keeps
// every answer and loses the exact join and the f64 batches 3×.
func TestTileDispatchServesBenchmarkDims(t *testing.T) {
	if !x86HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	if !useDotTileAsm {
		t.Fatal("useDotTileAsm is off on an AVX2 machine")
	}
	for _, d := range []int{16, 32, 64} {
		if !tileSIMD(d) {
			t.Errorf("f64 d=%d scores query quads through the Go kernels", d)
		}
	}
}
