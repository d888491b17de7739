//go:build amd64 && unix

package flat

import (
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/vec"
)

// guardedPage maps at least size readable bytes, whole pages filled
// with a fixed pattern, that end flush against an unreadable page: a
// kernel handed their last bytes faults on any load or store past them.
// The equivalence grids cannot see such an access — Go's heap is
// readable past most slices.
func guardedPage(t *testing.T, size int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	n := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, n+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[n:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for i := range mem[:n] {
		mem[i] = byte(i*37 + 11)
	}
	return mem[:n]
}

// TestQuantKernelsStayInsideAllocation scores stores whose one chunk
// ends flush against an unreadable page, at dimensions where the int8
// range kernel's padded last chunk (16 ∤ d) and the f32 kernel's element
// tail (8 ∤ d) run up to the row's end: a load past the last row faults.
// The VNNI int8 tile kernel, where the machine has it, runs at every
// tile width 1–8, signed and unsigned, on every load path it has: whole
// 16-row groups of d = 32 loads, the pieces of four rows at any other
// d — the last one shifted back inside the row (16 ∤ d) —
// and below d = 16 the byte-masked row, passes past d = 64 (65, 100),
// and a group cut short by the last row (n off a multiple of 16), each
// ending on the page. d = 8 and 16 run the same any-dimension range
// kernels as the rest.
func TestQuantKernelsStayInsideAllocation(t *testing.T) {
	if !useQuantAsm {
		t.Skip("no asm kernels on this machine")
	}
	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 255, 256}
	dims := []int{4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 64, 65, 100}
	mem := guardedPage(t, 4*slices.Max(ns)*slices.Max(dims))
	for _, d := range dims {
		for _, n := range ns {
			out := make([]float64, n)

			codes := unsafe.Slice((*int8)(unsafe.Pointer(&mem[len(mem)-n*d])), n*d)
			s8 := &StoreI8{dim: d, scale: 1}
			s8.codes.width, s8.codes.n, s8.codes.chunks = d, n, [][]int8{codes}
			qc, _ := quantizeQueryI8(nil, vec.New(d))
			s8.dotRange(qc, 1, 0, n, out)

			if i8TileSIMD(d) {
				tl := &i8Tile{stride: len(qc), combined: make([]float64, maxTileQ)}
				tl.i16 = make([]int16, maxTileQ*tl.stride)
				tl.pack(d)
				for nq := 1; nq <= maxTileQ; nq++ {
					for _, unsigned := range []bool{false, true} {
						s8.tileDots(tl, 0, nq, 0, n, unsigned)
					}
				}
			}

			rows := unsafe.Slice((*float32)(unsafe.Pointer(&mem[len(mem)-4*n*d])), n*d)
			s32 := newStore32(d)
			s32.data.n, s32.data.chunks = n, [][]float32{rows}
			s32.dotRange(make([]float32, d), 0, n, out)
		}
	}
}

// TestTileKernelsStayInsideAllocation does the same for the f64 AVX2
// kernels, at dimensions with every element-tail length (4 ∤ d). For
// the quad micro-kernels the data rows and the 4-query block each end
// flush against an unreadable page, at row counts whose odd ones end on
// the trailing-row path: dotTile4 at every d. dotTile8 gets the same
// rows and an octet of queries, and its pack and scores end pages too
// (it writes both). For dotRows4 the query and each of the four rows
// ends a page of its own. A Store.dotRange sweep whose one chunk ends a
// page — one full 4-row dotRows4 group, alone or with a 1–3-row Go
// tail, or the tail alone — runs on every tier, its query and scores
// ending pages too. skipBelow reads scores ending a page at every
// length 0–40, each below the bar, so it reads every whole group — the
// last flush against the page when 16 divides the length — and must
// stop before a partial one.
func TestTileKernelsStayInsideAllocation(t *testing.T) {
	if !useDotTileAsm {
		t.Skip("no asm kernels on this machine")
	}
	// last returns the n float64s that end a page.
	last := func(page []byte, n int) []float64 {
		return unsafe.Slice((*float64)(unsafe.Add(unsafe.Pointer(&page[0]), len(page)-8*n)), n)
	}
	page := syscall.Getpagesize()
	rows, queries, pack, scores := guardedPage(t, 2*page), guardedPage(t, 2*page), guardedPage(t, 2*page), guardedPage(t, 2*page)
	var cands [4][]byte
	for j := range cands {
		cands[j] = guardedPage(t, 2*page)
	}
	for n := 0; n <= 40; n++ {
		buf := last(scores, n)
		clear(buf)
		for _, unsigned := range []bool{false, true} {
			if g := skipBelow(buf, 1, unsigned); g != n&^(skipGroup-1) {
				t.Fatalf("skipBelow over %d scores below the bar, unsigned=%v: %d", n, unsigned, g)
			}
		}
	}
	for _, d := range []int{4, 5, 7, 8, 9, 16, 17, 33, 34, 64, 100} {
		for _, n := range []int{1, 2, 3, 5} {
			dotTile4(last(rows, n*d), d, last(queries, 4*d), make([]float64, 4*n))
			if useOctetAsm {
				dotTile8(last(rows, n*d), d, last(queries, 8*d), last(pack, octetPackLen(d)), last(scores, 8*n))
			}
		}
		var out [4]float64
		dotRows4(last(queries, d), last(cands[0], d), last(cands[1], d), last(cands[2], d), last(cands[3], d), &out)
		for _, n := range []int{1, 3, 4, 5, 7} {
			s := newStore(d)
			s.data.n, s.data.chunks = n, [][]float64{last(rows, n*d)}
			for _, kt := range kernelTiers {
				restore := kt.use()
				s.dotRange(last(queries, d), 0, n, last(scores, n))
				restore()
			}
		}
	}
}
