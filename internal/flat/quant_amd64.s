// AVX2 quantized-store range kernels. See quant_amd64.go for the
// contracts. Each tier has one kernel, for any dimension of at least
// one chunk (8 floats, 16 codes), and no fixed-dimension twin: with the
// row stride built in, the f32 kernel scans 20 000 rows in 45 µs at
// d = 8 and 45 at d = 16 to the any-d kernel's 21 and 31, the int8 one
// in 16.3 µs at d = 16 to its 15.6. Like the f64 tile kernels, the
// float32 kernel avoids FMA so every multiply and add is a separately
// rounded IEEE operation; the 8-lane vector accumulator matches the Go
// kernel's s_0..s_7, the in-register fold VEXTRACTF128+VADDPS
// reproduces t_i = s_i + s_{i+4}, and the VHADDPS pair computes
// (t0+t1)+(t2+t3) before the score is widened (IEEE addition is
// commutative for the values involved). The int8 kernel is exact int32
// arithmetic throughout, so no ordering contract is needed at all.

#include "textflag.h"

// func dot32Range(p []float32, d int, q []float32, out []float64)
//
// len(out) rows of d float32 each (d ≥ 8, any value): dot32RangeGeneric's
// chain. A row's 8-lane accumulator starts at zero and takes one
// VMULPS/VADDPS per 8-float chunk; the d mod 8 trailing elements go
// into lane 0 one VMULSS/VADDSS at a time — on the low half, after the
// high half (s4..s7) has been split off, because a VEX scalar op clears
// everything above bit 127. The main loop carries FOUR rows per pass so
// the fold is shared: t_i = s_i + s_{i+4} per row, then a VHADDPS tree
// whose first level forms (t0+t1, t2+t3) for two rows at a time and
// whose second adds the pairs, leaving the four scores in one register
// for a single VCVTPS2PD. Every load stays inside its row.
TEXT ·dot32Range(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ d+24(FP), DX
	MOVQ q_base+32(FP), SI
	MOVQ out_base+56(FP), R9
	MOVQ out_len+64(FP), CX

	SHLQ $2, DX     // row length in bytes
	MOVQ DX, BX
	ANDQ $-32, BX   // bytes of it in whole 8-float chunks

loop4_32:
	CMPQ CX, $4
	JL   tail_32

	LEAQ (DI)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ   AX, AX

chunk4_32:
	VMOVUPS (SI)(AX*1), Y8
	VMULPS  (DI)(AX*1), Y8, Y4
	VMULPS  (R10)(AX*1), Y8, Y5
	VMULPS  (R11)(AX*1), Y8, Y6
	VMULPS  (R12)(AX*1), Y8, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	ADDQ    $32, AX
	CMPQ    AX, BX
	JL      chunk4_32

	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	JMP          next4_32

elem4_32:
	VMOVSS (SI)(AX*1), X8
	VMULSS (DI)(AX*1), X8, X9
	VMULSS (R10)(AX*1), X8, X10
	VMULSS (R11)(AX*1), X8, X11
	VMULSS (R12)(AX*1), X8, X12
	VADDSS X9, X0, X0
	VADDSS X10, X1, X1
	VADDSS X11, X2, X2
	VADDSS X12, X3, X3
	ADDQ   $4, AX

next4_32:
	CMPQ AX, DX
	JL   elem4_32

	VADDPS  X4, X0, X0
	VADDPS  X5, X1, X1
	VADDPS  X6, X2, X2
	VADDPS  X7, X3, X3
	VHADDPS X1, X0, X0
	VHADDPS X3, X2, X2
	VHADDPS X2, X0, X0

	VCVTPS2PD X0, Y0
	VMOVUPD   Y0, (R9)

	LEAQ (R12)(DX*1), DI
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  loop4_32

tail_32:
	TESTQ CX, CX
	JZ    done_32

	VXORPS Y0, Y0, Y0
	XORQ   AX, AX

chunk1_32:
	VMOVUPS (SI)(AX*1), Y8
	VMULPS  (DI)(AX*1), Y8, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, BX
	JL      chunk1_32

	VEXTRACTF128 $1, Y0, X4
	JMP          next1_32

elem1_32:
	VMOVSS (SI)(AX*1), X8
	VMULSS (DI)(AX*1), X8, X9
	VADDSS X9, X0, X0
	ADDQ   $4, AX

next1_32:
	CMPQ AX, DX
	JL   elem1_32

	VADDPS    X4, X0, X0
	VHADDPS   X0, X0, X0
	VHADDPS   X0, X0, X0
	VCVTSS2SD X0, X0, X0
	MOVSD     X0, (R9)

	ADDQ DX, DI
	ADDQ $8, R9
	DECQ CX
	JMP  tail_32

done_32:
	VZEROUPPER
	RET

// func dotI8Range(p []int8, d int, q []int16, combined float64, out []float64)
//
// len(out) rows of d int8 codes each (d ≥ 16, any value). q holds the
// int16-widened query codes zero-padded to len(q) = 16·⌈d/16⌉; its
// first chunk stays in Y8, and combined = scale·qscale is broadcast
// into Y9. A row is walked in 16-code chunks: VPMOVSXBW sign-extends
// the codes, VPMADDWD forms 8 exact int32 pair sums against the query
// chunk (products ≤ 127², no overflow), VPADDD adds them into the
// row's one accumulator. The main loop carries FOUR rows per pass; a
// three-VPHADDD tree plus one cross-lane VPADDD collapses the four
// accumulators to [d0 d1 d2 d3], and VCVTDQ2PD/VMULPD dequantize all
// four with one rounding each — the scalar float64(acc)·combined.
//
// When 16 ∤ d a row's last chunk runs up to 15 codes into the row
// behind it; the padded query codes are zero there, so the sum is
// unchanged, but the load is only in bounds while another row follows —
// the caller scores the last row of the allocation itself.
TEXT ·dotI8Range(SB), NOSPLIT, $0-88
	MOVQ p_base+0(FP), DI
	MOVQ d+24(FP), DX
	MOVQ q_base+32(FP), SI
	MOVQ q_len+40(FP), BX
	MOVQ out_base+64(FP), R9
	MOVQ out_len+72(FP), CX

	VMOVDQU      (SI), Y8
	VBROADCASTSD combined+56(FP), Y9

	PCALIGN $64 // the loop head starts a cache line, wherever the code around it moves
loop4_i8d:
	CMPQ CX, $4
	JL   tail_i8d

	LEAQ (DI)(DX*1), R10
	LEAQ (DI)(DX*2), R11
	LEAQ (R11)(DX*1), R12

	VPMOVSXBW (DI), Y0
	VPMOVSXBW (R10), Y1
	VPMOVSXBW (R11), Y2
	VPMOVSXBW (R12), Y3
	VPMADDWD  Y8, Y0, Y0
	VPMADDWD  Y8, Y1, Y1
	VPMADDWD  Y8, Y2, Y2
	VPMADDWD  Y8, Y3, Y3

	CMPQ BX, $16
	JE   fold4_i8d
	MOVQ $16, AX

chunk4_i8d:
	VMOVDQU   (SI)(AX*2), Y10
	VPMOVSXBW (DI)(AX*1), Y4
	VPMOVSXBW (R10)(AX*1), Y5
	VPMOVSXBW (R11)(AX*1), Y6
	VPMOVSXBW (R12)(AX*1), Y7
	VPMADDWD  Y10, Y4, Y4
	VPMADDWD  Y10, Y5, Y5
	VPMADDWD  Y10, Y6, Y6
	VPMADDWD  Y10, Y7, Y7
	VPADDD    Y4, Y0, Y0
	VPADDD    Y5, Y1, Y1
	VPADDD    Y6, Y2, Y2
	VPADDD    Y7, Y3, Y3
	ADDQ      $16, AX
	CMPQ      AX, BX
	JL        chunk4_i8d

fold4_i8d:
	// [r0:01 r0:23 r1:01 r1:23 | r0:45 r0:67 r1:45 r1:67] and rows 2,3.
	VPHADDD Y1, Y0, Y0
	VPHADDD Y3, Y2, Y2

	// [r0:0-3 r1:0-3 r2:0-3 r3:0-3 | r0:4-7 r1:4-7 r2:4-7 r3:4-7]
	VPHADDD Y2, Y0, Y0

	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0

	VCVTDQ2PD X0, Y0
	VMULPD    Y9, Y0, Y0
	VMOVUPD   Y0, (R9)

	LEAQ (R12)(DX*1), DI
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  loop4_i8d

tail_i8d:
	TESTQ CX, CX
	JZ    done_i8d

	VPMOVSXBW (DI), Y0
	VPMADDWD  Y8, Y0, Y0
	MOVQ      $16, AX
	JMP       next1_i8d

chunk1_i8d:
	VPMOVSXBW (DI)(AX*1), Y4
	VPMADDWD  (SI)(AX*2), Y4, Y4
	VPADDD    Y4, Y0, Y0
	ADDQ      $16, AX

next1_i8d:
	CMPQ AX, BX
	JL   chunk1_i8d

	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPHADDD      X0, X0, X0
	VPHADDD      X0, X0, X0
	VCVTDQ2PD    X0, X0
	VMULSD       X9, X0, X0
	MOVSD        X0, (R9)

	ADDQ DX, DI
	ADDQ $8, R9
	DECQ CX
	JMP  tail_i8d

done_i8d:
	VZEROUPPER
	RET
