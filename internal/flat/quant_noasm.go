//go:build !amd64

package flat

// useQuantAsm is false off amd64: the quantized scans run the pure-Go
// kernels (same accumulation chains, same results).
var useQuantAsm = false

func dot32Range(p []float32, d int, q []float32, out []float64) {
	panic("flat: dot32Range asm unavailable")
}

func dotI8Range(p []int8, d int, q []int16, combined float64, out []float64) {
	panic("flat: dotI8Range asm unavailable")
}

// useI8TileAsm is false off amd64: the int8 tiles score per query.
var useI8TileAsm = false

func dotI8Tile(p []int8, d, n int, q []int8, qstride int, nbias, floors []int32, unsigned bool, dots []int32, mask []uint64) {
	panic("flat: dotI8Tile asm unavailable")
}
