//go:build !amd64

package flat

// useDotTileAsm is false off amd64: every tile kernel runs the pure-Go
// multi-query path (same accumulation chains, same results).
var useDotTileAsm = false

func dotTile16x4(p, q, out []float64) { panic("flat: dotTile16x4 asm unavailable") }

func dotTile4(p []float64, d int, q, out []float64) { panic("flat: dotTile4 asm unavailable") }
