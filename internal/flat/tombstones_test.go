package flat

import (
	"math"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// perm32 returns perm as a norm-sorted run's ids are held.
func perm32(perm []int) []int32 {
	out := make([]int32, len(perm))
	for i, p := range perm {
		out[i] = int32(p)
	}
	return out
}

// killRandom tombstones each of n rows with probability frac and
// returns the set plus the live index list.
func killRandom(rng *xrand.RNG, n int, frac float64) (*Tombstones, []int) {
	t := NewTombstones(n)
	var live []int
	for i := 0; i < n; i++ {
		if rng.Float64() < frac {
			t.Kill(i)
		} else {
			live = append(live, i)
		}
	}
	return t, live
}

// naiveTopKMasked is the reference model: score every live row with
// the scalar kernel and keep the canonical top k.
func naiveTopKMasked(s *Store, q vec.Vector, k int, unsigned bool, dead *Tombstones) []Hit {
	a := NewAcc(k)
	for i := 0; i < s.Len(); i++ {
		if dead.Dead(i) {
			continue
		}
		v := s.Dot(i, q)
		if unsigned && v < 0 {
			v = -v
		}
		a.Offer(i, v)
	}
	return a.Hits()
}

func TestTombstonesBasics(t *testing.T) {
	var nilT *Tombstones
	if nilT.Len() != 0 || nilT.Count() != 0 || nilT.Dead(3) || nilT.DeadIn(0, 100) != 0 {
		t.Fatal("nil Tombstones is not all-live")
	}
	ts := nilT.Grow(10)
	if ts.Len() != 10 || ts.Count() != 0 {
		t.Fatalf("Grow(nil, 10) = len %d count %d", ts.Len(), ts.Count())
	}
	ts.Kill(3)
	ts.Kill(3)
	ts.Kill(7)
	if ts.Count() != 2 || !ts.Dead(3) || !ts.Dead(7) || ts.Dead(4) {
		t.Fatalf("after kills: count %d", ts.Count())
	}
	big := ts.Grow(20)
	if big.Len() != 20 || big.Count() != 2 || !big.Dead(3) || big.Dead(15) {
		t.Fatal("Grow did not preserve dead bits")
	}
	big.Kill(15)
	if ts.Dead(15) || ts.Count() != 2 {
		t.Fatal("Grow shares storage with its source")
	}
}

func TestTombstonesDeadIn(t *testing.T) {
	rng := xrand.New(7)
	n := 1000
	ts, _ := killRandom(rng, n, 0.3)
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		want := 0
		for i := lo; i < hi; i++ {
			if ts.Dead(i) {
				want++
			}
		}
		if got := ts.DeadIn(lo, hi); got != want {
			t.Fatalf("DeadIn(%d, %d) = %d, want %d", lo, hi, got, want)
		}
	}
	if got := ts.DeadIn(0, n); got != ts.Count() {
		t.Fatalf("DeadIn full range %d != Count %d", got, ts.Count())
	}
}

func TestTombstonesGather(t *testing.T) {
	rng := xrand.New(9)
	n := 300
	ts, _ := killRandom(rng, n, 0.4)
	perm := perm32(rng.Perm(n))
	g := ts.Gather(perm)
	if g.Count() != ts.Count() {
		t.Fatalf("Gather count %d != %d", g.Count(), ts.Count())
	}
	for i, p := range perm {
		if g.Dead(i) != ts.Dead(int(p)) {
			t.Fatalf("Gather bit %d: got %v, want Dead(%d)=%v", i, g.Dead(i), p, ts.Dead(int(p)))
		}
	}
	var nilT *Tombstones
	if nilT.Gather(perm) != nil {
		t.Fatal("Gather(nil) should stay nil")
	}
}

// killClustered tombstones the first frac of rows — the shape upserts
// produce (old rows die in ingest order), and the shape block skipping
// is designed for.
func killClustered(n int, frac float64) *Tombstones {
	t := NewTombstones(n)
	for i := 0; i < int(float64(n)*frac); i++ {
		t.Kill(i)
	}
	return t
}

// scoreThenFilter is the strawman the tentpole benchmarks against:
// scan everything with the unmasked kernel asking for extra results,
// then drop tombstoned hits.
func scoreThenFilter(s *Store, q vec.Vector, k int, dead *Tombstones) []Hit {
	raw, err := s.TopK(q, k+dead.Count(), false, 1)
	if err != nil {
		panic(err)
	}
	out := raw[:0]
	for _, h := range raw {
		if !dead.Dead(h.Index) {
			out = append(out, h)
			if len(out) == k {
				break
			}
		}
	}
	return out
}

func BenchmarkTopKMasked(b *testing.B) {
	rng := xrand.New(42)
	n, d, k := 1<<16, 32, 10
	s, _ := FromVectors(randomVecs(rng, n, d))
	q := vec.Vector(rng.NormalVec(d))
	for _, bench := range []struct {
		name string
		dead *Tombstones
	}{
		{"dead0", nil},
		{"dead50-clustered", killClustered(n, 0.5)},
		{"dead50-scattered", func() *Tombstones { t, _ := killRandom(xrand.New(1), n, 0.5); return t }()},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64((n - bench.dead.Count()) * d * 8))
			for i := 0; i < b.N; i++ {
				if _, err := s.TopKMasked(q, k, false, 1, bench.dead); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("dead50-scorethenfilter", func(b *testing.B) {
		dead := killClustered(n, 0.5)
		b.SetBytes(int64(n / 2 * d * 8))
		for i := 0; i < b.N; i++ {
			scoreThenFilter(s, q, k, dead)
		}
	})
}

// offerRowsRef is OfferRows' reference: each row of the list that dead
// does not mark, offered in list order with its vec.DotKernel score
// (math.Abs of it when unsigned). It returns the hits and the rows
// offered.
func offerRowsRef(s *Store, q vec.Vector, k int, rows []int, dead *Tombstones, unsigned bool) ([]Hit, int) {
	a := NewAcc(k)
	n := 0
	for _, r := range rows {
		if dead.Dead(r) {
			continue
		}
		v := vec.DotKernel(s.Row(r), q)
		if unsigned {
			v = math.Abs(v)
		}
		a.Offer(r, v)
		n++
	}
	return a.Hits(), n
}

// checkOfferRows runs OfferRows on rows and requires offerRowsRef's
// count and hits, scores compared by Float64bits.
func checkOfferRows(t *testing.T, s *Store, q vec.Vector, k int, rows []int, dead *Tombstones, unsigned bool) {
	t.Helper()
	a := NewAcc(k)
	got, stopped := s.OfferRows(nil, &a, q, rows, dead, unsigned)
	want, n := offerRowsRef(s, q, k, rows, dead, unsigned)
	if stopped || got != n || !hitBitsEqual(a.Hits(), want) {
		t.Fatalf("d=%d k=%d unsigned=%v rows=%v dead=%d: scored %d (stopped %v), want %d\n got %v\nwant %v",
			s.Dim(), k, unsigned, rows, dead.Count(), got, stopped, n, a.Hits(), want)
	}
}

// TestOfferRows: verifying a candidate list is the masked reference scan
// restricted to it — dead rows neither scored nor counted, every score
// vec.DotKernel's bits whichever slot of a four-row call it took and
// however short the last call, a tie at the threshold still offered —
// and a fired done channel stops it at the next 1024-row poll with the
// rows buffered there offered and counted. Every case runs on the Go
// pair kernel and, where the machine has it, on the AVX2 dotRows4.
func TestOfferRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	zeros := []float64{0, negZero, 1, -1, 5e-324, -5e-324}
	forEachKernelPath(t, func(t *testing.T) {
		rng := xrand.New(71)
		for _, d := range []int{1, 2, 3, 4, 5, 7, 16, 32, 33} {
			const n = 40
			s, _ := FromVectors(randomVecs(rng, n, d))
			q := vec.Vector(rng.NormalVec(d))
			// Signed zeros decide the bits: a row of −0 against a
			// non-negative query sums to the chain's +0, never −0.
			zs := randomVecs(rng, n, d)
			for i, v := range zs {
				for j := range v {
					v[j] = zeros[rng.Intn(len(zeros))]
					if i%3 == 0 {
						v[j] = negZero
					}
				}
			}
			z, _ := FromVectors(zs)
			zq := vec.New(d)
			for j := range zq {
				zq[j] = []float64{0, 1, 5e-324}[rng.Intn(3)]
			}
			dead, _ := killRandom(rng, n, 0.3)
			// Live, dead, live, dead, …: half of every call's slots are dead.
			alt := NewTombstones(n)
			for i := 1; i < n; i += 2 {
				alt.Kill(i)
			}
			perm := rng.Perm(n)
			asc := make([]int, n)
			for i := range asc {
				asc[i] = i
			}
			for _, c := range []struct {
				s *Store
				q vec.Vector
			}{{s, q}, {z, zq}} {
				for _, unsigned := range []bool{false, true} {
					for _, mask := range []*Tombstones{nil, dead, alt} {
						for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, n - 1, n} {
							checkOfferRows(t, c.s, c.q, n, perm[:m], mask, unsigned)
							checkOfferRows(t, c.s, c.q, 3, perm[:m], mask, unsigned)
						}
						checkOfferRows(t, c.s, c.q, n, asc, mask, unsigned)
					}
				}
			}
		}

		// Rows 2 and 5 are equal, row 7 scores lower: offered 5 before 2,
		// the tie at the full accumulator's threshold must still displace
		// 5, whatever slot 2 is scored in.
		d := 5
		vs := randomVecs(rng, 8, d)
		q := vec.Vector(rng.NormalVec(d))
		if vec.Dot(vs[2], q) < 0 {
			q = vec.Neg(q)
		}
		vs[5] = vs[2]
		vs[7] = vec.Vector(make([]float64, d))
		s, _ := FromVectors(vs)
		for _, rows := range [][]int{{5, 2}, {7, 5, 2}, {5, 7, 2}, {5, 2, 7}, {5, 5, 2, 2}, {7, 7, 7, 5, 2}} {
			for _, unsigned := range []bool{false, true} {
				a := NewAcc(1)
				s.OfferRows(nil, &a, q, rows, nil, unsigned)
				if h := a.Hits(); len(h) != 1 || h[0].Index != 2 {
					t.Fatalf("rows %v unsigned=%v: %v, want row 2", rows, unsigned, h)
				}
				checkOfferRows(t, s, q, 1, rows, nil, unsigned)
			}
		}

		const n = 3000
		s, _ = FromVectors(randomVecs(rng, n, 7))
		q = vec.Vector(rng.NormalVec(7))
		dead, live := killRandom(rng, n, 0.3)
		all := rng.Perm(n)
		for _, unsigned := range []bool{false, true} {
			for _, mask := range []*Tombstones{nil, dead} {
				want := n
				if mask != nil {
					want = len(live)
				}
				a := NewAcc(10)
				got, stopped := s.OfferRows(nil, &a, q, all, mask, unsigned)
				if stopped || got != want {
					t.Fatalf("scored %d rows (stopped %v), want %d", got, stopped, want)
				}
				if ref := naiveTopKMasked(s, q, 10, unsigned, mask); !hitBitsEqual(a.Hits(), ref) {
					t.Fatalf("unsigned=%v masked=%v: %v, reference %v", unsigned, mask != nil, a.Hits(), ref)
				}
				checkOfferRows(t, s, q, n, all, mask, unsigned)
			}
		}
		// 1023 rows precede the first poll. With the first j of them dead,
		// 1023 − j are live and (1023 − j) mod 4 = 3, 2, 1, 0 of them wait
		// in the buffer there: they are scored and offered before the poll
		// stops the loop.
		done := make(chan struct{})
		close(done)
		for j := 0; j < 4; j++ {
			mask := NewTombstones(n)
			for _, r := range all[:j] {
				mask.Kill(r)
			}
			a := NewAcc(n)
			got, stopped := s.OfferRows(done, &a, q, all, mask, false)
			want, offered := offerRowsRef(s, q, n, all[:1023], mask, false)
			if !stopped || got != offered || !hitBitsEqual(a.Hits(), want) {
				t.Fatalf("cancelled with %d rows buffered: scored %d rows with %d hits, stopped %v; want %d, the first 1023 rows' hits and true",
					offered%4, got, len(a.Hits()), stopped, offered)
			}
		}
		a := NewAcc(n)
		if got, stopped := s.OfferRows(done, &a, q, all[:1023], nil, false); stopped || got != 1023 {
			t.Fatalf("a list short of the first poll: scored %d rows, stopped %v", got, stopped)
		}
	})
}
