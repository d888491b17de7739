//go:build amd64 && unix

package flat

import (
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/vec"
)

// TestQuantKernelsStayInsideAllocation scores stores whose one chunk
// ends flush against an unreadable page, at dimensions where the int8
// kernel's padded last chunk (16 ∤ d) and the f32 kernel's element tail
// (8 ∤ d) run up to the row's end: a load past the last row faults. The
// equivalence grid cannot see that — Go's heap is readable past most
// slices.
func TestQuantKernelsStayInsideAllocation(t *testing.T) {
	if !useQuantAsm {
		t.Skip("no asm kernels on this machine")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for i := range mem[:page] {
		mem[i] = byte(i*37 + 11)
	}
	for _, d := range []int{8, 9, 15, 16, 17, 31, 32, 33, 40, 100} {
		for _, n := range []int{1, 2, 3, 4, 5, 9} {
			out := make([]float64, n)

			codes := unsafe.Slice((*int8)(unsafe.Pointer(&mem[page-n*d])), n*d)
			s8 := &StoreI8{dim: d, scale: 1}
			s8.codes.width, s8.codes.n, s8.codes.chunks = d, n, [][]int8{codes}
			qc, _ := quantizeQueryI8(nil, vec.New(d))
			s8.dotRange(qc, 1, 0, n, out)

			rows := unsafe.Slice((*float32)(unsafe.Pointer(&mem[page-4*n*d])), n*d)
			s32 := newStore32(d)
			s32.data.n, s32.data.chunks = n, [][]float32{rows}
			s32.dotRange(make([]float32, d), 0, n, out)
		}
	}
}
