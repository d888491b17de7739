// eiselLemire64 is a port of the function of that name in the Go
// standard library's strconv/eisel_lemire.go:
//
// Copyright 2020 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the Go distribution's LICENSE file.
//
// The algorithm is Eisel and Lemire's (D. Lemire, "Number Parsing at a
// Gigabyte per Second", Software: Practice and Experience 51(8), 2021),
// explained at https://nigeltao.github.io/blog/2020/eisel-lemire.html,
// whose section names the terse comments in the function refer to.

package server

import (
	"math"
	"math/big"
	"math/bits"
)

// The powers of ten eiselLemire64 handles; both bounds inclusive.
const (
	pow10Min = -348
	pow10Max = +347
)

// pow10 holds the 128 most significant bits of 10^e, rounded down, as
// {low, high} words, at pow10[e-pow10Min]: strconv's detailedPowersOfTen,
// computed at start-up instead of listed.
var pow10 [pow10Max - pow10Min + 1][2]uint64

func init() {
	ten, mask := big.NewInt(10), new(big.Int).SetUint64(math.MaxUint64)
	p, m := new(big.Int), new(big.Int)
	for e := pow10Min; e <= pow10Max; e++ {
		p.Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		switch n := p.BitLen(); {
		case e < 0: // 2^(n+127) / 10^-e lies in (2^127, 2^128)
			m.Lsh(m.SetInt64(1), uint(n+127)).Quo(m, p)
		case n > 128:
			m.Rsh(p, uint(n-128))
		default:
			m.Lsh(p, uint(128-n))
		}
		pow10[e-pow10Min][1] = new(big.Int).Rsh(m, 64).Uint64()
		pow10[e-pow10Min][0] = m.And(m, mask).Uint64()
	}
}

// eiselLemire64 is man × 10^exp10, negated if neg, correctly rounded to
// a float64 — or ok false where the algorithm cannot decide: exp10
// outside [pow10Min, pow10Max], a result too close to halfway between
// two floats, or one that is subnormal or overflows.
func eiselLemire64(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			f = math.Float64frombits(0x8000000000000000) // Negative zero.
		}
		return f, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow10[exp10-pow10Min][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow10[exp10-pow10Min][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64. Zero or underflow means that we're in subnormal
	// float64 space. 0x7FF or above means that we're in Inf/NaN float64 space.
	//
	// The if block is equivalent to (but has fewer branches than):
	//   if retExp2 <= 0 || retExp2 >= 0x7FF { etc }
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
