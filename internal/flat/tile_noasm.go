//go:build !amd64

package flat

// useDotTileAsm is false off amd64: every tile kernel runs the pure-Go
// multi-query path (same accumulation chains, same results).
var useDotTileAsm = false

// useOctetAsm is false off amd64 too: there is no octet kernel.
var useOctetAsm = false

func dotTile8(p []float64, d int, q, pack, out []float64) { panic("flat: dotTile8 asm unavailable") }

func dotTile4(p []float64, d int, q, out []float64) { panic("flat: dotTile4 asm unavailable") }

func dotRows4(q, r0, r1, r2, r3 []float64, out *[4]float64) {
	panic("flat: dotRows4 asm unavailable")
}

func skipBelow(buf []float64, thr float64, unsigned bool) int {
	panic("flat: skipBelow asm unavailable")
}
