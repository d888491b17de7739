package flat

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// growInSteps builds the three tiers over vs the way a shard does: the
// f64 store by CloneGrow + AppendAll of random-sized batches (single
// Appends mixed in), the mirrors by Extend after every batch. Each step
// leaves the previous stores alive, as published snapshots would be.
func growInSteps(t *testing.T, rng *xrand.RNG, vs []vec.Vector) (*Store, *Store32, *StoreI8) {
	t.Helper()
	fs, err := New(len(vs[0]))
	if err != nil {
		t.Fatal(err)
	}
	s32, i8 := NewStore32(fs), NewStoreI8(fs)
	for len(vs) > 0 {
		b := min(1+rng.Intn(700), len(vs))
		fs = fs.CloneGrow(b)
		if b == 1 {
			err = fs.Append(vs[0])
		} else {
			err = fs.AppendAll(vs[:b])
		}
		if err != nil {
			t.Fatal(err)
		}
		s32, i8 = s32.Extend(fs), i8.Extend(fs)
		vs = vs[b:]
	}
	return fs, s32, i8
}

// TestGrownStoresMatchFromVectors: a store grown across chunk edges
// answers every scan entry point exactly as a one-shot build of the
// same rows does, and serializes to the same bytes.
func TestGrownStoresMatchFromVectors(t *testing.T) {
	for _, n := range []int{chunkRows - 1, chunkRows, chunkRows + 1, 5*chunkRows + 17} {
		for _, d := range []int{5, 8, 16} {
			t.Run(fmt.Sprintf("n=%d/d=%d", n, d), func(t *testing.T) {
				rng := xrand.New(uint64(n*31 + d))
				vs := saltedVecs(rng, n-5, d) // salting adds five rows
				want, err := FromVectors(vs)
				if err != nil {
					t.Fatal(err)
				}
				got, got32, got8 := growInSteps(t, rng, vs)
				want32, want8 := NewStore32(want), NewStoreI8(want)
				if !sameStore32(got32, want32) {
					t.Fatal("extended Store32 differs from NewStore32")
				}
				if !got8.Equal(want8) {
					t.Fatal("extended StoreI8 differs from NewStoreI8")
				}
				if !bytes.Equal(got.AppendBinary(nil), want.AppendBinary(nil)) ||
					!bytes.Equal(appendStore32(nil, got32), appendStore32(nil, want32)) ||
					!bytes.Equal(got8.AppendBinary(nil), want8.AppendBinary(nil)) {
					t.Fatal("AppendBinary output differs from a one-shot build")
				}

				dead, _ := killRandom(rng, n, 0.3)
				qs, err := FromVectors(tileGrid(rng, vs, 11, d))
				if err != nil {
					t.Fatal(err)
				}
				same := func(what string, a, b any, errs ...error) {
					t.Helper()
					for _, err := range errs {
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s differs from a one-shot build", what)
					}
				}
				for j := 0; j < qs.Len(); j++ {
					q := qs.Row(j)
					for _, unsigned := range []bool{false, true} {
						a, errA := got.TopK(q, 10, unsigned, 1)
						b, errB := want.TopK(q, 10, unsigned, 1)
						same("TopK", a, b, errA, errB)
						a, errA = got.TopKMasked(q, 10, unsigned, 1, dead)
						b, errB = want.TopKMasked(q, 10, unsigned, 1, dead)
						same("TopKMasked", a, b, errA, errB)
						o := ScanOpts{K: 10, Unsigned: unsigned, Dead: dead}
						a, errA = got32.View().Scan(context.Background(), q, o)
						b, errB = want32.View().Scan(context.Background(), q, o)
						same("Store32 Scan", a, b, errA, errB)
						a, errA = got8.View().Scan(context.Background(), q, o)
						b, errB = want8.View().Scan(context.Background(), q, o)
						same("StoreI8 Scan", a, b, errA, errB)
					}
				}
				a, errA := got.TopKMulti(qs, 10, false)
				b, errB := want.TopKMulti(qs, 10, false)
				same("TopKMulti", a, b, errA, errB)
				na, _, errA := NewNormSorted(got).TopKMulti(qs, 10, true)
				nb, _, errB := NewNormSorted(want).TopKMulti(qs, 10, true)
				same("NormSorted.TopKMulti", na, nb, errA, errB)

				// Ranges chosen to start, end and sit across chunk edges.
				for _, r := range [][2]int{{0, n}, {chunkRows - 3, min(n, chunkRows+3)}, {n / 3, n}, {n - 1, n}} {
					lo, hi := r[0], r[1]
					x, y := make([]float64, hi-lo), make([]float64, hi-lo)
					q := qs.Row(0)
					same("DotRange", x, y, got.DotRange(q, lo, hi, x), want.DotRange(q, lo, hi, y))
					same("Store32.DotRange", x, y, got32.DotRange(q, lo, hi, x), want32.DotRange(q, lo, hi, y))
					same("StoreI8.DotRange", x, y, got8.DotRange(q, lo, hi, x), want8.DotRange(q, lo, hi, y))
					x, y = make([]float64, 9*(hi-lo)), make([]float64, 9*(hi-lo))
					sc := new(TileScratch)
					same("DotTile", x, y, got.DotTile(qs, 1, 10, lo, hi, x, sc), want.DotTile(qs, 1, 10, lo, hi, y, sc))
				}
			})
		}
	}
}

// TestDotTileQueryChunkEdge: a query tile that crosses a chunk edge of
// the query store scores, on both sides of the edge, exactly as the
// single-query kernel does — and only the octet or quad holding the
// edge leaves its micro-kernel: the ones before and after it are still
// served by the assembly.
func TestDotTileQueryChunkEdge(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		quads, octets := 0, 0
		quad, octet := quadKernel, octetKernel
		quadKernel = func(p []float64, d int, q, out []float64) {
			quads++
			quad(p, d, q, out)
		}
		octetKernel = func(p []float64, d int, q, pack, out []float64) {
			octets++
			octet(p, d, q, pack, out)
		}
		defer func() { quadKernel, octetKernel = quad, octet }()
		rng := xrand.New(77)
		for _, d := range []int{8, 16, 23, 32, 34} {
			s, _ := FromVectors(randomVecs(rng, 300, d))
			qs, _ := FromVectors(randomVecs(rng, chunkRows+10, d))
			quads, octets = 0, 0
			checkTile(t, s, qs, chunkRows-6, chunkRows+10, 0, 256)
			wantQuads, wantOctets := 0, 0
			switch {
			case tileOctets(d):
				// The octet at chunkRows-6 holds the edge, and so does the one
				// at -2: a quad and a pair take them. chunkRows is an octet,
				// the last two queries a pair.
				wantQuads, wantOctets = 1, 1
			case tileSIMD(d):
				// Quads start at chunkRows-6 and -2; the second holds the edge
				// and goes to the pair kernel, then chunkRows and +4 are quads.
				wantQuads = 3
			}
			if quads != wantQuads || octets != wantOctets {
				t.Fatalf("d=%d: %d query quads and %d octets ran a micro-kernel, want %d and %d", d, quads, octets, wantQuads, wantOctets)
			}
		}
	})
}

// TestExtendInt8Scale: a batch inside the old max|x| is coded alone and
// shares the rest; one that raises max|x| re-codes everything. Both
// equal a from-scratch build.
func TestExtendInt8Scale(t *testing.T) {
	rng := xrand.New(5)
	base, _ := FromVectors(randomVecs(rng, chunkRows+100, 16))
	i8 := NewStoreI8(base)

	small := base.CloneGrow(2)
	if err := small.AppendAll([]vec.Vector{vec.Scaled(base.Row(0), 0.5), vec.New(16)}); err != nil {
		t.Fatal(err)
	}
	ext := i8.Extend(small)
	if !ext.Equal(NewStoreI8(small)) {
		t.Fatal("in-scale Extend differs from NewStoreI8")
	}
	// The one-shot build left the open chunk no room, so this first
	// extension moved it; the sealed chunk is shared all the same.
	if got := ext.SharedRows(i8); got != chunkRows {
		t.Fatalf("in-scale Extend shares %d rows, want the sealed chunk's %d", got, chunkRows)
	}
	small2 := small.CloneGrow(1)
	if err := small2.Append(vec.New(16)); err != nil {
		t.Fatal(err)
	}
	ext2 := ext.Extend(small2)
	if !ext2.Equal(NewStoreI8(small2)) {
		t.Fatal("second in-scale Extend differs from NewStoreI8")
	}
	if got := ext2.SharedRows(ext); got != ext.Len() {
		t.Fatalf("second in-scale Extend shares %d of %d rows", got, ext.Len())
	}

	big := base.CloneGrow(1)
	if err := big.Append(vec.Scaled(base.Row(0), 1e3)); err != nil {
		t.Fatal(err)
	}
	ext = i8.Extend(big)
	if !ext.Equal(NewStoreI8(big)) {
		t.Fatal("scale-raising Extend differs from NewStoreI8")
	}
	if ext.Scale() <= i8.Scale() || ext.SharedRows(i8) != 0 {
		t.Fatalf("scale-raising Extend kept scale %v (was %v) or shared %d rows", ext.Scale(), i8.Scale(), ext.SharedRows(i8))
	}
	if !i8.Equal(NewStoreI8(base)) {
		t.Fatal("Extend disturbed the store it extended")
	}
}

// TestGrowParentTwice: the first store grown from a parent appends in
// place into the shared open chunk; a second one must copy that chunk
// rather than write over the first's rows, and the parent sees neither.
func TestGrowParentTwice(t *testing.T) {
	rng := xrand.New(9)
	n := chunkRows + 40
	parent, _ := FromVectors(randomVecs(rng, n, 8))
	// Leave spare capacity in the open chunk, as a shard mid-stream has.
	parent = parent.CloneGrow(1)
	if err := parent.Append(vec.Vector(rng.NormalVec(8))); err != nil {
		t.Fatal(err)
	}
	n++
	batchA, batchB := randomVecs(rng, 5, 8), randomVecs(rng, 5, 8)
	first := parent.CloneGrow(5)
	if err := first.AppendAll(batchA); err != nil {
		t.Fatal(err)
	}
	if got := first.SharedRows(parent); got != n {
		t.Fatalf("first child shares %d rows, want all %d", got, n)
	}
	second := parent.CloneGrow(5)
	if err := second.AppendAll(batchB); err != nil {
		t.Fatal(err)
	}
	if got := second.SharedRows(parent); got != chunkRows {
		t.Fatalf("second child shares %d rows, want the sealed chunk's %d", got, chunkRows)
	}
	if err := parent.Append(vec.Vector(rng.NormalVec(8))); err != nil {
		t.Fatal(err)
	}
	for i := range batchA {
		if !vec.EqualTol(first.Row(n+i), batchA[i], 0) {
			t.Fatalf("first child's row %d was overwritten", n+i)
		}
		if !vec.EqualTol(second.Row(n+i), batchB[i], 0) {
			t.Fatalf("second child's row %d is wrong", n+i)
		}
	}
	if first.Len() != n+5 || second.Len() != n+5 || parent.Len() != n+1 {
		t.Fatalf("lengths %d, %d, %d", first.Len(), second.Len(), parent.Len())
	}

	// A reset store must not recycle memory another store can reach.
	if err := first.ResetDim(8); err != nil {
		t.Fatal(err)
	}
	if err := first.Append(vec.New(8)); err != nil {
		t.Fatal(err)
	}
	if vec.EqualTol(parent.Row(0), vec.New(8), 0) {
		t.Fatal("ResetDim recycled a chunk the parent still reads")
	}
}

// TestAppendBesideReaders runs scans of a published store while its
// successors are appended in place into the chunk they share; under
// -race this is the proof that readers never touch the written tail.
func TestAppendBesideReaders(t *testing.T) {
	rng := xrand.New(13)
	fs, _ := FromVectors(randomVecs(rng, chunkRows/2, 16))
	s32, i8 := NewStore32(fs), NewStoreI8(fs)
	q := vec.Vector(rng.NormalVec(16))
	var wg sync.WaitGroup
	for step := 0; step < 20; step++ {
		want, _ := fs.TopK(q, 5, false, 1)
		wg.Add(1)
		go func(fs *Store, s32 *Store32, i8 *StoreI8) {
			defer wg.Done()
			got, err := fs.TopK(q, 5, false, 1)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("published store answered differently during an append: %v", err)
			}
			if _, err := s32.TopK(q, 5, false, 1); err != nil {
				t.Error(err)
			}
			if _, err := i8.TopK(q, 5, false, 1); err != nil {
				t.Error(err)
			}
		}(fs, s32, i8)
		fs = fs.CloneGrow(64)
		// Scaled down so the int8 scale holds and Extend appends in place.
		batch := randomVecs(rng, 64, 16)
		for _, v := range batch {
			vec.Scale(v, 0.01)
		}
		if err := fs.AppendAll(batch); err != nil {
			t.Fatal(err)
		}
		s32, i8 = s32.Extend(fs), i8.Extend(fs)
	}
	wg.Wait()
}
