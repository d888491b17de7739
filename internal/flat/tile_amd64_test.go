//go:build amd64

package flat

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestTileDispatchServesBenchmarkDims is the f64 twin of
// TestQuantDispatchServesBenchmarkDims: on an AVX2 machine every
// dimension a benchmark workload serves, and 34 (ALSH hashing's
// SIMPLE-mapped 32), must send its query quads to a micro-kernel, and on
// one whose /proc/cpuinfo lists avx512f its query octets to dotTile8.
// Narrowed back to particular dimensions, or misreading the CPU, the
// gates keep every answer and lose the exact join and the f64 batches
// their speed.
func TestTileDispatchServesBenchmarkDims(t *testing.T) {
	if !x86HasAVX2() {
		t.Skip("no AVX2 on this machine")
	}
	if !useDotTileAsm {
		t.Fatal("useDotTileAsm is off on an AVX2 machine")
	}
	cpuinfo, err := os.ReadFile("/proc/cpuinfo")
	avx512 := err == nil && slices.Contains(strings.Fields(string(cpuinfo)), "avx512f")
	switch {
	case err != nil:
		t.Logf("octet gate unchecked: %v", err)
	case avx512 != useOctetAsm:
		t.Fatalf("/proc/cpuinfo lists avx512f: %v; useOctetAsm: %v", avx512, useOctetAsm)
	}
	for _, d := range []int{16, 32, 34, 64} {
		if !tileSIMD(d) {
			t.Errorf("f64 d=%d scores query quads through the Go kernels", d)
		}
		if avx512 && !tileOctets(d) {
			t.Errorf("f64 d=%d scores query octets as quads on an AVX-512 machine", d)
		}
	}
}
