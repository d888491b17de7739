package flat

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// offerRef is block.offer's reference: every score of b that b.dead does
// not mark goes to Offer, negated when below zero under unsigned (−0 and
// a negative NaN stay as they are, as in the loop), with no skip of any
// kind.
func offerRef(a *Acc, b block, scores []float64) {
	for r, v := range scores {
		if b.unsigned && v < 0 {
			v = -v
		}
		phys := b.off + b.start + r
		if b.dead.Dead(phys) {
			continue
		}
		idx := phys
		if b.ids != nil {
			idx = int(b.ids[b.start+r])
		}
		a.Offer(idx, v)
	}
}

// checkOffer runs b.offer and offerRef on copies of a and requires the
// same hits in the same order, scores compared by Float64bits. With the
// asm dispatch on, skipBelow must also return skipBelowGeneric's group
// at every group start of scores, at a's threshold and at each score's.
func checkOffer(t *testing.T, what string, a *Acc, b block, scores []float64) {
	t.Helper()
	got, want := *a, *a
	got.hits, want.hits = slices.Clone(a.hits), slices.Clone(a.hits)
	b.offer(&got, scores)
	offerRef(&want, b, scores)
	if !hitBitsEqual(got.Hits(), want.Hits()) {
		t.Fatalf("%s: n=%d unsigned=%v ids=%v keys=%v dead=%v threshold %v:\n got %v\nwant %v",
			what, len(scores), b.unsigned, b.ids != nil, a.keys != nil, b.dead != nil, a.Threshold(), got.Hits(), want.Hits())
	}
	if !useDotTileAsm {
		return
	}
	for g := 0; g < len(scores); g += skipGroup {
		for _, thr := range append([]float64{a.Threshold()}, scores[g:min(g+skipGroup, len(scores))]...) {
			if asm, gen := skipBelow(scores[g:], thr, b.unsigned), skipBelowGeneric(scores[g:], thr, b.unsigned); asm != gen {
				t.Fatalf("%s: skipBelow(scores[%d:] of %d, %v, unsigned=%v) = %d, skipBelowGeneric %d",
					what, g, len(scores), thr, b.unsigned, asm, gen)
			}
		}
	}
}

// TestBlockOfferMatchesOffer holds the one offer loop to offerRef: hits
// and their order, by Float64bits and index, on every kernel tier (the
// Go skipBelowGeneric, and the AVX2 skipBelow where the machine has it).
// Blocks of 0–40, 255 and 256 scores mix scores well below the bar with
// NaNs of both signs and with payloads, ±0, ±Inf, subnormals and ties
// at the bar (and at −bar, which ties unsigned), in sparse and dense
// mixes; signed and unsigned; with and without ids, keys and a dead set;
// into an under-full accumulator with and without a floor at the bar, a
// full one and a full one whose bar is 0.
func TestBlockOfferMatchesOffer(t *testing.T) {
	const bar, k, off, start = 0.5, 3, 7, 5
	specials := []float64{
		bar, -bar, math.Nextafter(bar, 1), math.Nextafter(bar, 0), -math.Nextafter(bar, 1),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 0x1p-1022,
		math.Float64frombits(0x7FF8_0000_0000_0001), math.Float64frombits(0xFFF0_0000_0000_0042),
		math.NaN(), -math.NaN(), 1, -1, 0.75, -0.75,
	}
	var lengths []int
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 255, 256)
	const space = off + start + 256 // indexes and keys of every block and prefill
	forEachKernelPath(t, func(t *testing.T) {
		rng := xrand.New(52)
		for _, n := range lengths {
			for _, dense := range []float64{0.03, 0.4} {
				scores := make([]float64, n)
				for i := range scores {
					if scores[i] = 0.8*rng.Float64() - 0.4; rng.Float64() < dense {
						scores[i] = specials[rng.Intn(len(specials))]
					}
				}
				for state := range 4 {
					for flags := range 16 {
						a := NewAcc(k)
						if flags&1 != 0 {
							a.SetKeys(rng.Perm(space))
						}
						switch state {
						case 1:
							a.SetFloor(bar)
						case 2, 3:
							for range k {
								a.Offer(rng.Intn(space), []float64{bar, 0}[state-2])
							}
						}
						b := block{start: start, unsigned: flags&2 != 0}
						if flags&4 != 0 {
							b.ids, b.off = perm32(rng.Perm(space)[:start+n]), off
						}
						if flags&8 != 0 {
							b.dead, _ = killRandom(rng, space, 0.2)
						}
						checkOffer(t, "table", &a, b, scores)
					}
				}
			}
		}
	})
}

// FuzzOfferScores holds the one offer loop to offerRef on any score bit
// patterns (raw, 8 bytes a score, up to 300), bar, floor and k ≤ 16, on
// every kernel tier. flags: 1 unsigned, 2 ids (a permutation), 4 keys,
// 8 a dead set, 16 set the floor, 32 fill the accumulator with k scores
// of bar first, 64 turn every fifth score into ±bar.
func FuzzOfferScores(f *testing.F) {
	mk := func(vals ...float64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	low := make([]float64, 40)
	for i := range low {
		low[i] = float64(i%7) / 20
	}
	f.Add(mk(low...), 0.5, 0.2, uint8(2), uint8(32), uint64(1))
	f.Add(mk(append(low[:20:20], math.NaN(), -0.5, 0.5, math.Inf(-1))...), 0.5, 0.5, uint8(1), uint8(1|32|64), uint64(2))
	f.Add(mk(append(low[:17:17], 0, math.Copysign(0, -1), 5e-324)...), 0.0, 0.0, uint8(4), uint8(2|4|8|16|32), uint64(3))
	f.Add(mk(-1, 2, math.Float64frombits(0xFFF0_0000_0000_0042), -3), math.Inf(-1), 1.0, uint8(0), uint8(16|8), uint64(4))
	f.Fuzz(func(t *testing.T, raw []byte, bar, floor float64, kw, flags uint8, seed uint64) {
		n := min(len(raw)/8, 300)
		scores := make([]float64, n)
		for i := range scores {
			if scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])); flags&64 != 0 && i%5 == 4 {
				scores[i] = math.Copysign(bar, float64(i%2*2-1))
			}
		}
		rng := xrand.New(seed)
		k, start := int(kw%16)+1, int(seed%9)
		space := start + n + 2*k
		a := NewAcc(k)
		b := block{start: start, unsigned: flags&1 != 0}
		if flags&2 != 0 {
			b.ids, b.off = perm32(rng.Perm(space)), int(seed%5)
			space += b.off
		}
		if flags&4 != 0 {
			a.SetKeys(rng.Perm(space))
		}
		if flags&8 != 0 {
			b.dead, _ = killRandom(rng, space, rng.Float64())
		}
		if flags&16 != 0 {
			a.SetFloor(floor)
		}
		if flags&32 != 0 {
			for range k {
				a.Offer(rng.Intn(space), bar)
			}
		}
		for _, kt := range kernelTiers {
			func() {
				defer kt.use()()
				checkOffer(t, kt.name, &a, b, scores)
			}()
		}
	})
}
