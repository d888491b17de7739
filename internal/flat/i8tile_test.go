package flat

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/vec"
	"repro/internal/xrand"
)

// i8GridRows builds n rows of dimension d: Gaussian rows under a few
// saturated ones — all +m, all −m and alternating ±m, m above every
// Gaussian entry, so they set the scale and code as ±127 — and a
// duplicate pair, a tie only the row order breaks.
func i8GridRows(rng *xrand.RNG, n, d int) []vec.Vector {
	vs := randomVecs(rng, n, d)
	const m = 10
	for i := range vs[3] {
		vs[3][i], vs[n/2][i], vs[n-2][i] = m, -m, m*float64(1-2*(i%2))
	}
	vs[n-1] = vs[n/3].Clone()
	return vs
}

// i8Lattice fills v with entries from {−1, 0, 1} and puts 127 at one
// place: under a scale of 1 its codes are its entries, so dots against
// other lattice vectors are small integers, every value taken by many
// rows — a row one code above the k-th best is common.
func i8Lattice(rng *xrand.RNG, v vec.Vector) {
	for i := range v {
		v[i] = float64(rng.Intn(3) - 1)
	}
	v[rng.Intn(len(v))] = 127
}

// i8GridQueries are a tile's 21 queries: Gaussian ones, two lattice
// ones, the zero query (every dot 0), a saturated one (codes ±127), a
// copy of a row, a subnormal one, whose scale times the store's is
// subnormal too, and a huge one, whose ‖q‖₁ overflows.
func i8GridQueries(rng *xrand.RNG, vs []vec.Vector, d int) []vec.Vector {
	qs := randomVecs(rng, 16, d)
	i8Lattice(rng, qs[0])
	i8Lattice(rng, qs[1])
	sat, tiny, huge := vec.New(d), vec.Vector(rng.NormalVec(d)), vec.Vector(rng.NormalVec(d))
	for i := range sat {
		sat[i] = float64(1 - 2*(i%3%2))
		tiny[i] *= 1e-310
		huge[i] *= 1e308
	}
	return append(qs, vec.New(d), sat, vs[rng.Intn(len(vs))].Clone(), tiny, huge)
}

// TestStoreI8ScanMultiMatchesScan holds the int8 tile sweep — on the
// VNNI tier the code floor and the masked offers, on the others the
// per-query scoring — to Scan per query, the float-scored path: hits
// bit-identical and in order, per-query scanned
// rows and summed stats equal. And it holds the sweep's certificate to
// the f64 scan: each query's candidates, re-ranked through the f64 rows,
// are the f64 Scan's hits bit for bit. Dimensions cover a lone 4-code
// column and every column remainder around the AVX2 chunk; row counts
// put blocks on both sides of a chunk edge; an all-zero store has
// combined scale 0; a lattice store (i8Lattice rows) ties many rows at
// every small dot, so a floor one code too high drops a row Scan keeps;
// a non-finite store holds ±Inf and NaN elements, which no code bounds.
// Each store runs every tombstone shape signed and unsigned, k cycling
// through 1, 10, 50 and more than n (the floor never rises: every row
// passes), tile widths cycling through 1..20 over the 21 queries — a
// width of 1 is a single search.
func TestStoreI8ScanMultiMatchesScan(t *testing.T) {
	rng := xrand.New(40)
	ctx := context.Background()
	cells := 0
	for _, d := range []int{4, 5, 15, 16, 17, 31, 32, 33, 64, 80} {
		for _, n := range []int{1023, 1024, 1025, 2300, -1, -2, -3} {
			name := fmt.Sprintf("d=%d n=%d", d, n)
			vs := i8GridRows(rng, max(n, 1025), d)
			switch n {
			case -1:
				name = fmt.Sprintf("d=%d zero store", d)
				for _, v := range vs {
					clear(v)
				}
			case -2:
				name = fmt.Sprintf("d=%d lattice store", d)
				for _, v := range vs {
					i8Lattice(rng, v)
				}
			case -3:
				name = fmt.Sprintf("d=%d non-finite store", d)
				vs[5][0], vs[600][d-1], vs[900][d/2] = math.Inf(1), math.NaN(), math.Inf(-1)
			}
			fs, err := FromVectors(vs)
			if err != nil {
				t.Fatal(err)
			}
			n = fs.Len()
			v := NewStoreI8(fs).View()
			qs, err := FromVectors(i8GridQueries(rng, vs, d))
			if err != nil {
				t.Fatal(err)
			}
			for _, shape := range []string{"nil", "random25", "block1", "all"} {
				dead := i8GridDead(shape, n, rng)
				for _, unsigned := range []bool{false, true} {
					k := []int{1, 10, 50, n + 1}[cells%4]
					nq := qs.Len()
					if k > n {
						nq = 3 // every row is offered: a few queries suffice
					}
					o := ScanOpts{K: k, Unsigned: unsigned, Dead: dead}
					want := make([][]Hit, nq)
					exact := make([][]Hit, nq)
					wantScanned := make([]int, nq)
					wantStats := make([]ScanStats, nq)
					for j := range want {
						if exact[j], err = fs.View().Scan(ctx, qs.Row(j), o); err != nil {
							t.Fatal(err)
						}
						o.Stats = &wantStats[j]
						if want[j], err = v.Scan(ctx, qs.Row(j), o); err != nil {
							t.Fatal(err)
						}
						o.Stats = nil
						wantScanned[j] = wantStats[j].ScannedRows
					}
					w := 1 + cells%min(nq, 20)
					cells++
					cell := fmt.Sprintf("%s dead=%s unsigned=%v k=%d", name, shape, unsigned, k)
					forEachKernelPath(t, func(t *testing.T) {
						for _, tile := range [][2]int{{0, w}, {w, nq}} {
							checkI8Tile(t, cell, fs, v, qs, tile[0], tile[1], o, want, exact, wantScanned, wantStats)
						}
					})
				}
			}
		}
	}
}

// i8GridDead is one tombstone shape over n rows: none, a scattered
// quarter, the whole second block, or every row.
func i8GridDead(shape string, n int, rng *xrand.RNG) *Tombstones {
	switch shape {
	case "random25":
		dead, _ := killRandom(rng, n, 0.25)
		return dead
	case "block1":
		dead := NewTombstones(n)
		for i := blockRows; i < 2*blockRows; i++ {
			dead.Kill(i)
		}
		return dead
	case "all":
		dead := NewTombstones(n)
		for i := 0; i < n; i++ {
			dead.Kill(i)
		}
		return dead
	}
	return nil
}

// checkI8Tile runs ScanMulti over queries [qlo, qhi) of qs and holds it
// to the per-query Scan results want, wantScanned and wantStats, and its
// candidates, re-ranked through fs, to the f64 Scan results exact.
func checkI8Tile(t *testing.T, cell string, fs *Store, v View, qs *Store, qlo, qhi int, o ScanOpts, want, exact [][]Hit, wantScanned []int, wantStats []ScanStats) {
	t.Helper()
	if qlo == qhi {
		return
	}
	sc := GetTileScratch()
	defer PutTileScratch(sc)
	accs := sc.Accs(qhi-qlo, o.K)
	var st, sum ScanStats
	o.Stats = &st
	if err := v.ScanMulti(context.Background(), qs, qlo, qhi, accs, sc, o); err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	for j := range accs {
		if !hitBitsEqual(accs[j].Hits(), want[qlo+j]) {
			t.Fatalf("%s queries [%d, %d) query %d: tile %v, Scan %v", cell, qlo, qhi, qlo+j, accs[j].Hits(), want[qlo+j])
		}
		if sc.Scanned()[j] != wantScanned[qlo+j] {
			t.Fatalf("%s query %d: tile scanned %d rows, Scan %d", cell, qlo+j, sc.Scanned()[j], wantScanned[qlo+j])
		}
		sum.Add(wantStats[qlo+j])
		a := NewAcc(o.K)
		fs.OfferRows(nil, &a, qs.Row(qlo+j), sc.Candidates(j, &accs[j]), nil, o.Unsigned)
		if !hitBitsEqual(a.Hits(), exact[qlo+j]) {
			t.Fatalf("%s queries [%d, %d) query %d: re-ranked candidates %v, f64 Scan %v", cell, qlo, qhi, qlo+j, a.Hits(), exact[qlo+j])
		}
	}
	if st != sum {
		t.Fatalf("%s queries [%d, %d): tile stats %+v, summed Scan stats %+v", cell, qlo, qhi, st, sum)
	}
}

// TestCodeFloor checks codeFloor at random and extreme (bar, combined):
// every t ≤ F scores float64(t)·combined ≤ bar, and F + 1 does not
// wherever F is below the int32 maximum. F = MinInt32 may also mean no
// t holds at all; then none may.
func TestCodeFloor(t *testing.T) {
	rng := xrand.New(41)
	holds := func(t int64, bar, c float64) bool { return float64(t)*c <= bar }
	check := func(bar, c float64) {
		f := int64(codeFloor(bar, c))
		if f == math.MinInt32 && !holds(f, bar, c) {
			for _, t2 := range []int64{0, -1, 1, math.MaxInt32, math.MinInt32 + 1} {
				if holds(t2, bar, c) {
					t.Fatalf("codeFloor(%v, %v) = MinInt32, which fails, but %d holds", bar, c, t2)
				}
			}
			return
		}
		below := []int64{f, f - 1, f - 2, math.MinInt32, math.MinInt32 + 1, f / 2, f - int64(rng.Intn(1000))}
		for _, t2 := range below {
			if t2 >= math.MinInt32 && t2 <= f && !holds(t2, bar, c) {
				t.Fatalf("codeFloor(%v, %v) = %d, but %d·combined = %v > bar", bar, c, f, t2, float64(t2)*c)
			}
		}
		if f < math.MaxInt32 && holds(f+1, bar, c) {
			t.Fatalf("codeFloor(%v, %v) = %d, but %d holds too", bar, c, f, f+1)
		}
	}
	bars := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), 5e-324, -5e-324,
		1e-300, -1e-300, 1, -1, 123.456, -123.456, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64}
	combineds := []float64{0, 5e-324, 1e-310, 0x1p-1022, 1e-5, 0.0123, 1, 3.7, 1e300, math.MaxFloat64, math.Inf(1)}
	for _, c := range combineds {
		for _, bar := range bars {
			check(bar, c)
		}
		// Exact code scores and their neighbours: the ties at the floor.
		for i := 0; i < 200; i++ {
			s := float64(int32(rng.Uint64())>>uint(rng.Intn(31))) * c
			check(s, c)
			check(math.Nextafter(s, math.Inf(1)), c)
			check(math.Nextafter(s, math.Inf(-1)), c)
		}
	}
	for i := 0; i < 20000; i++ {
		c := math.Ldexp(1+rng.Float64(), rng.Intn(2100)-1080)
		s := float64(int32(rng.Uint64())>>uint(rng.Intn(31))) * c
		check(s, c)
		check(math.Nextafter(s, math.Inf(1)), c)
		check(math.Nextafter(s, math.Inf(-1)), c)
		check(rng.Normal()*math.Ldexp(1, rng.Intn(200)-100), c)
	}
}

// dotI8 is the fuzz reference: the exact int32 dot of one row of codes
// with the first len(row) query codes.
func dotI8(row []int8, qc []int16) int32 {
	d := len(row)
	qc = qc[:d:d]
	var a0, a1, a2, a3 int32
	j := 0
	for ; j+4 <= d; j += 4 {
		a0 += int32(row[j]) * int32(qc[j])
		a1 += int32(row[j+1]) * int32(qc[j+1])
		a2 += int32(row[j+2]) * int32(qc[j+2])
		a3 += int32(row[j+3]) * int32(qc[j+3])
	}
	for ; j < d; j++ {
		a0 += int32(row[j]) * int32(qc[j])
	}
	return a0 + a1 + a2 + a3
}

// codePass is the code-domain compare dotI8Tile makes: dot > floor, or
// when unsigned |dot| > floor with both read as unsigned, so that
// |MinInt32| is 2³¹.
func codePass(dot, floor int32, unsigned bool) bool {
	if !unsigned {
		return dot > floor
	}
	if dot < 0 {
		dot = -dot
	}
	return uint32(dot) > uint32(floor)
}

// FuzzDotI8Tile holds the VNNI tile kernel to the Go loop's int32 dots
// and to codePass bit by bit, on raw codes: every byte a data or a
// query code (−128 included, which the quantizer never emits), any
// d ≤ 300, 1..blockRows rows, a tile of 1..8 queries at any offset in a
// larger bound set, floors at, around and far from the dots, signed and
// unsigned. The dots past n must be left as they were, and the mask bits
// past n clear up to the next 16-row group and untouched after it. raw
// is read cyclically. It skips where the kernel does not run: the other
// tiers score per query, as Scan does.
func FuzzDotI8Tile(f *testing.F) {
	seed := []byte{127, 129, 0, 1, 255, 128, 64, 3, 200, 17, 90, 7, 250}
	for _, d := range []uint16{4, 5, 15, 16, 17, 31, 32, 33, 64, 80, 257} {
		f.Add(d-1, uint16(255), uint8(7), false, seed)
		f.Add(d-1, uint16(16), uint8(12), true, seed)
		f.Add(d-1, uint16(0), uint8(0), true, seed)
	}
	// The row layout's edges: a piece shifted back inside the row (48,
	// 63, 65, 257), a pass of exactly 64 codes and passes past it (64,
	// 65, 128, 257), against one row, a group less one, a whole group,
	// one row past it and a whole block.
	for _, d := range []uint16{48, 63, 64, 65, 128, 257} {
		for i, n := range []uint16{1, 15, 16, 17, 256} {
			f.Add(d-1, n-1, uint8(8*i+7), i%2 == 1, seed)
		}
	}
	f.Fuzz(func(t *testing.T, dw, nw uint16, qw uint8, unsigned bool, raw []byte) {
		d, n, nq := int(dw)%300+1, int(nw)%blockRows+1, int(qw)%maxTileQ+1
		if len(raw) == 0 || !i8TileSIMD(d) {
			t.Skip()
		}
		at := 0
		next := func() byte { at++; return raw[(at-1)%len(raw)] }
		s := &StoreI8{dim: d, scale: 1}
		s.codes.width = d
		codes := s.codes.grow(n)
		for i := range codes {
			codes[i] = int8(next())
		}
		j0 := int(qw) / maxTileQ % 3
		total := j0 + nq + int(qw)/(3*maxTileQ)%2
		tl := &i8Tile{stride: i8Chunk * ((d + i8Chunk - 1) / i8Chunk), combined: make([]float64, total)}
		tl.i16 = make([]int16, total*tl.stride)
		for j := 0; j < total; j++ {
			for i := 0; i < d; i++ {
				tl.i16[j*tl.stride+i] = int16(int8(next()))
			}
		}
		want := make([]int32, nq*n)
		for j := 0; j < nq; j++ {
			for r := 0; r < n; r++ {
				want[j*n+r] = dotI8(codes[r*d:(r+1)*d], tl.i16[(j0+j)*tl.stride:])
			}
			switch b := next(); b % 4 {
			case 0:
				tl.floors[j] = want[j*n+int(next())%n] + int32(int8(next()))%3
			case 1:
				tl.floors[j] = int32(b)<<24 | int32(next())<<16 | int32(next())<<8 | int32(next())
			case 2:
				tl.floors[j] = math.MinInt32
			default:
				tl.floors[j] = int32(int8(next()))
			}
		}
		// Stale output would pass unnoticed: start from the complement
		// of every dot and bit the kernel owes, and from set bits and a
		// marker dot past n.
		const marker = 0x5eed
		for j := 0; j < maxTileQ; j++ {
			for r := 0; r < blockRows; r++ {
				tl.dots[j*blockRows+r] = marker
				tl.mask[j*maskWords+r/64] |= 1 << (r % 64)
			}
		}
		for j := 0; j < nq; j++ {
			for r := 0; r < n; r++ {
				tl.dots[j*blockRows+r] = ^want[j*n+r]
				if codePass(want[j*n+r], tl.floors[j], unsigned) {
					tl.mask[j*maskWords+r/64] &^= 1 << (r % 64)
				}
			}
		}
		tl.pack(d)
		s.tileDots(tl, j0, nq, 0, n, unsigned)
		for j := 0; j < nq; j++ {
			for r := 0; r < blockRows; r++ {
				dot, bit := tl.dots[j*blockRows+r], tl.mask[j*maskWords+r/64]>>(r%64)&1 == 1
				if r >= n {
					if wantBit := r >= (n+15)&^15; dot != marker || bit != wantBit {
						t.Fatalf("d=%d n=%d tile [%d, %d) of %d: query %d row %d past n: dot %d bit %v, want %d %v",
							d, n, j0, j0+nq, total, j, r, dot, bit, marker, wantBit)
					}
					continue
				}
				if w := want[j*n+r]; dot != w || bit != codePass(w, tl.floors[j], unsigned) {
					t.Fatalf("d=%d n=%d tile [%d, %d) of %d: query %d row %d: dot %d bit %v, want %d %v (floor %d, unsigned %v)",
						d, n, j0, j0+nq, total, j, r, dot, bit, w, codePass(w, tl.floors[j], unsigned), tl.floors[j], unsigned)
				}
			}
		}
	})
}

// FuzzI8Certificate holds the int8 certificate to the f64 rows: every
// row's f64 dot with every query lies within ε of its dequantized score,
// and each query's trimmed candidates hold the f64 top k — re-ranked
// through the f64 rows, they are the f64 Scan's hits bit for bit (see
// checkCertificate) — with no floor and again with each query's code
// sweep and re-rank floored at one of its own f64 scores, or none. The
// rows come in two batches, the second through Extend at a standing, a
// rising or an unchanged scale, which must equal a fresh quantization,
// bound included. mode picks Gaussian, lattice (many ties),
// wide-exponent or duplicated rows, and may add a non-finite element and
// tombstones; the queries are Gaussian at random scales and the zero
// query. Every kernel tier the machine has runs.
func FuzzI8Certificate(f *testing.F) {
	for i, d := range []uint8{4, 16, 17, 32, 33, 64} {
		f.Add(uint64(i), d, uint16(700), uint8(10), uint8(i*7), i%2 == 0)
		f.Add(uint64(i+10), d, uint16(300), uint8(1), uint8(i*5+4), i%2 == 1)
	}
	// Tombstones (mode bit 64) under floors: a dead row's block is still
	// counted as scanned, floored or not.
	f.Add(uint64(11), uint8(16), uint16(300), uint8(1), uint8(80), true)
	f.Fuzz(func(t *testing.T, seed uint64, dw uint8, nw uint16, kw uint8, mode uint8, unsigned bool) {
		d, n, k := int(dw)%80+1, int(nw)%1200+2, int(kw)%60+1
		rng := xrand.New(seed)
		vs := make([]vec.Vector, n)
		for i := range vs {
			v := vec.Vector(rng.NormalVec(d))
			switch mode % 4 {
			case 1:
				for j := range v {
					v[j] = float64(rng.Intn(5) - 2)
				}
			case 2:
				for j := range v {
					v[j] = math.Ldexp(v[j], rng.Intn(60)-30)
				}
			case 3:
				if i > 0 && rng.Intn(3) == 0 {
					v = vs[rng.Intn(i)].Clone()
				}
			}
			vs[i] = v
		}
		split := n / 2
		for _, v := range vs[split:] {
			switch mode / 4 % 3 {
			case 0:
				vec.Scale(v, 0.5) // the scale stands
			case 1:
				vec.Scale(v, 4) // it rises
			}
		}
		if mode&32 != 0 {
			vs[rng.Intn(n)][rng.Intn(d)] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
		fs, err := FromVectors(vs[:split])
		if err != nil {
			t.Fatal(err)
		}
		q8 := NewStoreI8(fs)
		all := fs.CloneGrow(n - split)
		if err := all.AppendAll(vs[split:]); err != nil {
			t.Fatal(err)
		}
		q8 = q8.Extend(all)
		if fresh := NewStoreI8(all); !q8.Equal(fresh) || q8.maxL1 != fresh.maxL1 || q8.unbounded != fresh.unbounded {
			t.Fatalf("Extend: maxL1 %d unbounded %v, a fresh quantization %d %v (or codes differ)", q8.maxL1, q8.unbounded, fresh.maxL1, fresh.unbounded)
		}
		queries := randomVecs(rng, 5, d)
		for _, q := range queries {
			vec.Scale(q, math.Ldexp(1, rng.Intn(20)-10))
		}
		qs, err := FromVectors(append(queries, vec.New(d)))
		if err != nil {
			t.Fatal(err)
		}
		var dead *Tombstones
		if mode&64 != 0 {
			dead, _ = killRandom(rng, n, 0.1)
		}
		// Each query's floor, for the second sweep: the f64 score of one of
		// its rows — a tie at the floor — or −Inf, none.
		floors := make([]float64, qs.Len())
		for j := range floors {
			floors[j] = math.Inf(-1)
			if f := vec.DotKernel(all.Row(rng.Intn(n)), qs.Row(j)); rng.Intn(4) > 0 && !math.IsNaN(f) {
				if unsigned {
					f = math.Abs(f)
				}
				floors[j] = f
			}
		}
		o := ScanOpts{K: k, Unsigned: unsigned, Dead: dead}
		for _, kt := range kernelTiers {
			var unfloored int // rows the floor-less sweep scored
			for _, floored := range []bool{false, true} {
				restore := kt.use()
				sc := GetTileScratch()
				accs := sc.Accs(qs.Len(), k)
				floor := func(j int) float64 {
					if floored {
						return floors[j]
					}
					return math.Inf(-1)
				}
				for j := range accs {
					accs[j].SetFloor(floor(j))
				}
				var st ScanStats
				o.Stats = &st
				if err := q8.View().ScanMulti(context.Background(), qs, 0, qs.Len(), accs, sc, o); err != nil {
					t.Fatal(err)
				}
				if !floored {
					unfloored = st.ScannedRows
				} else if st.ScannedRows > unfloored {
					t.Fatalf("%s: floored sweep scanned %d rows, %d without floors", kt.name, st.ScannedRows, unfloored)
				}
				for j := range accs {
					checkCertificate(t, kt.name, q8, all, qs, j, k, floor(j), sc, &accs[j], o)
				}
				PutTileScratch(sc)
				restore()
			}
		}
	})
}

// checkCertificate holds query j's int8 sweep, accs[j] as it left it
// under floor (−Inf: none), to the f64 rows: every row's f64 dot lies
// within ε of its dequantized score, and the trimmed candidates hold the
// f64 top k among the rows scoring at least floor — re-ranked through the
// f64 rows under the same floor, they are that top k bit for bit.
func checkCertificate(t *testing.T, tier string, q8 *StoreI8, all, qs *Store, j, k int, floor float64, sc *TileScratch, a *Acc, o ScanOpts) {
	t.Helper()
	d, n, q := all.Dim(), all.Len(), qs.Row(j)
	if eps := sc.i8.slack[j] / 2; !math.IsInf(eps, 1) {
		for r := 0; r < n; r++ {
			v := float64(dotI8(q8.Row(r), sc.i8.i16[j*sc.i8.stride:])) * sc.i8.combined[j]
			if f := vec.DotKernel(all.Row(r), q); !(math.Abs(f-v) <= eps) {
				t.Fatalf("%s: d=%d query %d row %d: f64 dot %v, dequantized %v, ε %v", tier, d, j, r, f, v, eps)
			}
		}
	}
	o.Stats = nil
	want, err := all.View().Scan(context.Background(), q, o)
	if err != nil {
		t.Fatal(err)
	}
	want = hitsAbove(want, floor)
	rows := sc.Candidates(j, a)
	in := make(map[int]bool, len(rows))
	for _, r := range rows {
		in[r] = true
	}
	for _, h := range want {
		if !in[h.Index] {
			t.Fatalf("%s: d=%d k=%d query %d floor %v: f64 hit %v is not a candidate (%d candidates)", tier, d, k, j, floor, h, len(rows))
		}
	}
	re := NewAcc(k)
	re.SetFloor(floor)
	all.OfferRows(nil, &re, q, rows, nil, o.Unsigned)
	if !hitBitsEqual(re.Hits(), want) {
		t.Fatalf("%s: d=%d k=%d query %d floor %v: re-ranked candidates %v, f64 Scan %v", tier, d, k, j, floor, re.Hits(), want)
	}
}
