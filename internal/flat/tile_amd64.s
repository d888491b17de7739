// AVX2 and AVX-512 multi-query tile micro-kernels. See tile.go for the
// tiers and tile_amd64.go for the contracts. The kernels deliberately
// avoid FMA: every multiply and add is a separately rounded IEEE
// operation, so lane k of a vector accumulator is bit-identical to the
// scalar kernel's s_k, and the horizontal reduction reproduces the
// scalar (s0+s1)+(s2+s3) combine exactly — VHADDPD pairs (s1+s0,
// s3+s2) and one VADDPD in the AVX2 kernels (IEEE addition is
// commutative for the values involved), VUNPCKLPD/VUNPCKHPD, VADDPD,
// VSHUFF64X2 and VADDPD in dotTile8. dotTile8 (AVX-512F, x86HasAVX512F
// is its gate) scores query octets at every d ≥ 4, where the machine
// has it; the AVX2 quads take the rest: dotTile4 serves every d ≥ 4 but
// 16; dotTile16x4, the row stride built in, is kept for d = 16, which
// small-hot serves, where it sweeps 20 000 rows for 8 queries in 256 µs
// to dotTile4's 284. dotRows4 is the candidate verify kernel (d ≥ 4):
// one query against four scattered rows, each lane begun at +0 like
// dotTile4's, no FMA, so every score is vec.DotKernel's. skipBelow is
// the top-k bookkeeping's skip, not a kernel: it finds the first
// 16-score group of a scored block not wholly below the bar. It is
// VEX-encoded throughout and ends in VZEROUPPER: a prototype that moved
// its mask in with a legacy-SSE MOVQ into X14, among the YMM
// instructions, ran 262 ns per 256 scores against VMOVQ's 50. The
// legacy MOVSD score stores in dotTile16x4 only read their register,
// and swapping them for VMOVSD changed nothing measurable.

#include "textflag.h"

// func x86HasAVX2() bool
TEXT ·x86HasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// Highest supported leaf must reach 7.
	MOVL $0, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JL   done

	// Leaf 1 ECX: OSXSAVE (bit 27) and AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, DX
	ANDL $(1<<27), DX
	JZ   done
	MOVL CX, DX
	ANDL $(1<<28), DX
	JZ   done

	// XCR0 bits 1 (XMM) and 2 (YMM) must be OS-enabled.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   done
	MOVB $1, ret+0(FP)

done:
	RET

// func dotTile16x4(p, q, out []float64)
//
// nr = len(p)/16 rows; q holds exactly 4 query rows of 16; out[j*nr+r]
// receives p_row(r)·q_row(j). Main loop: 2 rows × 4 queries with 8 YMM
// accumulators (Y0-Y3 row0×q0..q3, Y4-Y7 row1×q0..q3), row/query
// chunks in Y8-Y13, multiply temporaries in Y14/Y15. Chunk 0 initialises
// the accumulators with its products, so each reduction adds a zeroed
// Y13 to the four scores: the one step that puts this kernel on the +0
// chain.
TEXT ·dotTile16x4(SB), NOSPLIT, $0-72
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	SHRQ $4, CX
	MOVQ q_base+24(FP), SI
	MOVQ out_base+48(FP), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	LEAQ (R11)(CX*8), R12

	PCALIGN $64 // the loop head starts a cache line, wherever the code around it moves
loop2:
	CMPQ CX, $2
	JL   tail

	// chunk 0 (dims 0..3): initialise the 8 accumulators.
	VMOVUPD (DI), Y8
	VMOVUPD 128(DI), Y9
	VMOVUPD (SI), Y10
	VMOVUPD 128(SI), Y11
	VMOVUPD 256(SI), Y12
	VMOVUPD 384(SI), Y13
	VMULPD  Y10, Y8, Y0
	VMULPD  Y11, Y8, Y1
	VMULPD  Y12, Y8, Y2
	VMULPD  Y13, Y8, Y3
	VMULPD  Y10, Y9, Y4
	VMULPD  Y11, Y9, Y5
	VMULPD  Y12, Y9, Y6
	VMULPD  Y13, Y9, Y7

	// chunk 1 (dims 4..7).
	VMOVUPD 32(DI), Y8
	VMOVUPD 160(DI), Y9
	VMOVUPD 32(SI), Y10
	VMOVUPD 160(SI), Y11
	VMOVUPD 288(SI), Y12
	VMOVUPD 416(SI), Y13
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  Y11, Y8, Y15
	VADDPD  Y15, Y1, Y1
	VMULPD  Y12, Y8, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y13, Y8, Y15
	VADDPD  Y15, Y3, Y3
	VMULPD  Y10, Y9, Y14
	VADDPD  Y14, Y4, Y4
	VMULPD  Y11, Y9, Y15
	VADDPD  Y15, Y5, Y5
	VMULPD  Y12, Y9, Y14
	VADDPD  Y14, Y6, Y6
	VMULPD  Y13, Y9, Y15
	VADDPD  Y15, Y7, Y7

	// chunk 2 (dims 8..11).
	VMOVUPD 64(DI), Y8
	VMOVUPD 192(DI), Y9
	VMOVUPD 64(SI), Y10
	VMOVUPD 192(SI), Y11
	VMOVUPD 320(SI), Y12
	VMOVUPD 448(SI), Y13
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  Y11, Y8, Y15
	VADDPD  Y15, Y1, Y1
	VMULPD  Y12, Y8, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y13, Y8, Y15
	VADDPD  Y15, Y3, Y3
	VMULPD  Y10, Y9, Y14
	VADDPD  Y14, Y4, Y4
	VMULPD  Y11, Y9, Y15
	VADDPD  Y15, Y5, Y5
	VMULPD  Y12, Y9, Y14
	VADDPD  Y14, Y6, Y6
	VMULPD  Y13, Y9, Y15
	VADDPD  Y15, Y7, Y7

	// chunk 3 (dims 12..15).
	VMOVUPD 96(DI), Y8
	VMOVUPD 224(DI), Y9
	VMOVUPD 96(SI), Y10
	VMOVUPD 224(SI), Y11
	VMOVUPD 352(SI), Y12
	VMOVUPD 480(SI), Y13
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  Y11, Y8, Y15
	VADDPD  Y15, Y1, Y1
	VMULPD  Y12, Y8, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y13, Y8, Y15
	VADDPD  Y15, Y3, Y3
	VMULPD  Y10, Y9, Y14
	VADDPD  Y14, Y4, Y4
	VMULPD  Y11, Y9, Y15
	VADDPD  Y15, Y5, Y5
	VMULPD  Y12, Y9, Y14
	VADDPD  Y14, Y6, Y6
	VMULPD  Y13, Y9, Y15
	VADDPD  Y15, Y7, Y7

	// Reduce row 0: Y0..Y3 -> (q0,q1,q2,q3) results.
	VHADDPD    Y1, Y0, Y8
	VHADDPD    Y3, Y2, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD     Y11, Y10, Y12
	VXORPD     Y13, Y13, Y13
	VADDPD     Y13, Y12, Y12   // + 0: −0 → +0
	MOVSD      X12, (R9)
	VPERMILPD  $1, X12, X13
	MOVSD      X13, (R10)
	VEXTRACTF128 $1, Y12, X13
	MOVSD      X13, (R11)
	VPERMILPD  $1, X13, X13
	MOVSD      X13, (R12)

	// Reduce row 1: Y4..Y7.
	VHADDPD    Y5, Y4, Y8
	VHADDPD    Y7, Y6, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD     Y11, Y10, Y12
	VXORPD     Y13, Y13, Y13
	VADDPD     Y13, Y12, Y12   // + 0: −0 → +0
	MOVSD      X12, 8(R9)
	VPERMILPD  $1, X12, X13
	MOVSD      X13, 8(R10)
	VEXTRACTF128 $1, Y12, X13
	MOVSD      X13, 8(R11)
	VPERMILPD  $1, X13, X13
	MOVSD      X13, 8(R12)

	ADDQ $256, DI
	ADDQ $16, R9
	ADDQ $16, R10
	ADDQ $16, R11
	ADDQ $16, R12
	SUBQ $2, CX
	JMP  loop2

tail:
	TESTQ CX, CX
	JZ    done16

	// One trailing row × 4 queries (accumulators Y0-Y3).
	VMOVUPD (DI), Y8
	VMOVUPD (SI), Y10
	VMOVUPD 128(SI), Y11
	VMOVUPD 256(SI), Y12
	VMOVUPD 384(SI), Y13
	VMULPD  Y10, Y8, Y0
	VMULPD  Y11, Y8, Y1
	VMULPD  Y12, Y8, Y2
	VMULPD  Y13, Y8, Y3

	VMOVUPD 32(DI), Y8
	VMOVUPD 32(SI), Y10
	VMOVUPD 160(SI), Y11
	VMOVUPD 288(SI), Y12
	VMOVUPD 416(SI), Y13
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  Y11, Y8, Y15
	VADDPD  Y15, Y1, Y1
	VMULPD  Y12, Y8, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y13, Y8, Y15
	VADDPD  Y15, Y3, Y3

	VMOVUPD 64(DI), Y8
	VMOVUPD 64(SI), Y10
	VMOVUPD 192(SI), Y11
	VMOVUPD 320(SI), Y12
	VMOVUPD 448(SI), Y13
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  Y11, Y8, Y15
	VADDPD  Y15, Y1, Y1
	VMULPD  Y12, Y8, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y13, Y8, Y15
	VADDPD  Y15, Y3, Y3

	VMOVUPD 96(DI), Y8
	VMOVUPD 96(SI), Y10
	VMOVUPD 224(SI), Y11
	VMOVUPD 352(SI), Y12
	VMOVUPD 480(SI), Y13
	VMULPD  Y10, Y8, Y14
	VADDPD  Y14, Y0, Y0
	VMULPD  Y11, Y8, Y15
	VADDPD  Y15, Y1, Y1
	VMULPD  Y12, Y8, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y13, Y8, Y15
	VADDPD  Y15, Y3, Y3

	VHADDPD    Y1, Y0, Y8
	VHADDPD    Y3, Y2, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD     Y11, Y10, Y12
	VXORPD     Y13, Y13, Y13
	VADDPD     Y13, Y12, Y12   // + 0: −0 → +0
	MOVSD      X12, (R9)
	VPERMILPD  $1, X12, X13
	MOVSD      X13, (R10)
	VEXTRACTF128 $1, Y12, X13
	MOVSD      X13, (R11)
	VPERMILPD  $1, X13, X13
	MOVSD      X13, (R12)

done16:
	VZEROUPPER
	RET

// Bodies shared by dotTile4's chunk and element steps and its two row
// paths. Row chunks ride in Y8 (row 0) and Y9 (row 1), the four
// queries' chunks in Y10-Y13; accumulators are Y0-Y3 (row 0 × q0..q3)
// and Y4-Y7 (row 1 × q0..q3), products go through Y14/Y15.
#define TILE4_MAC_ROW0 \
	VMULPD Y10, Y8, Y14; \
	VADDPD Y14, Y0, Y0;  \
	VMULPD Y11, Y8, Y15; \
	VADDPD Y15, Y1, Y1;  \
	VMULPD Y12, Y8, Y14; \
	VADDPD Y14, Y2, Y2;  \
	VMULPD Y13, Y8, Y15; \
	VADDPD Y15, Y3, Y3

#define TILE4_MAC_ROW1 \
	VMULPD Y10, Y9, Y14; \
	VADDPD Y14, Y4, Y4;  \
	VMULPD Y11, Y9, Y15; \
	VADDPD Y15, Y5, Y5;  \
	VMULPD Y12, Y9, Y14; \
	VADDPD Y14, Y6, Y6;  \
	VMULPD Y13, Y9, Y15; \
	VADDPD Y15, Y7, Y7

// TILE4_STORE reduces one row's four accumulators to its four scores —
// (s0+s1)+(s2+s3) each — and stores them off bytes into the four
// queries' score runs: R9, R9+R10, R9+2·R10 and AX+R10 with
// AX = R9+2·R10.
#define TILE4_STORE(a0, a1, a2, a3, off) \
	VHADDPD      a1, a0, Y8;         \
	VHADDPD      a3, a2, Y9;         \
	VPERM2F128   $0x20, Y9, Y8, Y10; \
	VPERM2F128   $0x31, Y9, Y8, Y11; \
	VADDPD       Y11, Y10, Y12;      \
	VMOVSD       X12, off(R9);       \
	VPERMILPD    $1, X12, X13;       \
	VMOVSD       X13, off(R9)(R10*1); \
	VEXTRACTF128 $1, Y12, X13;       \
	VMOVSD       X13, off(R9)(R10*2); \
	VPERMILPD    $1, X13, X13;       \
	VMOVSD       X13, off(AX)(R10*1)

// func dotTile4(p []float64, d int, q, out []float64)
//
// nr = len(out)/4 rows of d doubles (d ≥ 4, any value) against the 4
// query rows of q: dotRangeGeneric's chain per (row, query). The same
// 4 queries × 2 rows blocking as dotTile16x4, with the dimension walked
// at run time: every accumulator starts at +0 and takes one unfused
// VMULPD/VADDPD per 4-double chunk, so lane k is the Go kernel's s_k
// from its first step (a chain begun with the bare first product, as
// dotTile16x4 begins its, holds −0 where +0 + −0 is +0). The d mod 4
// trailing elements are loaded with VMOVSD — lane 0
// the element, lanes 1-3 zeroed — and go through the same 4-wide
// multiply/add: lane 0 continues s_0's chain as the Go tail does, lanes
// 1-3 add +0·+0 = +0 to sums that began at +0 and so are never −0,
// which leaves them as they were. Every load stays inside its row.
TEXT ·dotTile4(SB), NOSPLIT, $0-80
	MOVQ p_base+0(FP), DI
	MOVQ d+24(FP), DX
	MOVQ q_base+32(FP), SI
	MOVQ out_base+56(FP), R9
	MOVQ out_len+64(FP), CX
	SHRQ $2, CX           // rows
	MOVQ CX, R10
	SHLQ $3, R10          // bytes from one query's scores to the next's
	SHLQ $3, DX           // row length in bytes
	MOVQ DX, BX
	ANDQ $-32, BX         // bytes of it in whole 4-double chunks
	LEAQ (SI)(DX*1), R11  // query rows 1..3
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13

loop2_4:
	CMPQ CX, $2
	JL   tail_4

	LEAQ   (DI)(DX*1), R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX

	PCALIGN $64 // the loop head starts a cache line, wherever the code around it moves
chunk2_4:
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD (R8)(AX*1), Y9
	VMOVUPD (SI)(AX*1), Y10
	VMOVUPD (R11)(AX*1), Y11
	VMOVUPD (R12)(AX*1), Y12
	VMOVUPD (R13)(AX*1), Y13
	TILE4_MAC_ROW0
	TILE4_MAC_ROW1
	ADDQ    $32, AX
	CMPQ    AX, BX
	JL      chunk2_4
	JMP     next2_4

elem2_4:
	VMOVSD (DI)(AX*1), X8
	VMOVSD (R8)(AX*1), X9
	VMOVSD (SI)(AX*1), X10
	VMOVSD (R11)(AX*1), X11
	VMOVSD (R12)(AX*1), X12
	VMOVSD (R13)(AX*1), X13
	TILE4_MAC_ROW0
	TILE4_MAC_ROW1
	ADDQ   $8, AX

next2_4:
	CMPQ AX, DX
	JL   elem2_4

	LEAQ (R9)(R10*2), AX
	TILE4_STORE(Y0, Y1, Y2, Y3, 0)
	TILE4_STORE(Y4, Y5, Y6, Y7, 8)

	LEAQ (R8)(DX*1), DI
	ADDQ $16, R9
	SUBQ $2, CX
	JMP  loop2_4

tail_4:
	TESTQ CX, CX
	JZ    done_4

	// One trailing row × 4 queries.
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

chunk1_4:
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD (SI)(AX*1), Y10
	VMOVUPD (R11)(AX*1), Y11
	VMOVUPD (R12)(AX*1), Y12
	VMOVUPD (R13)(AX*1), Y13
	TILE4_MAC_ROW0
	ADDQ    $32, AX
	CMPQ    AX, BX
	JL      chunk1_4
	JMP     next1_4

elem1_4:
	VMOVSD (DI)(AX*1), X8
	VMOVSD (SI)(AX*1), X10
	VMOVSD (R11)(AX*1), X11
	VMOVSD (R12)(AX*1), X12
	VMOVSD (R13)(AX*1), X13
	TILE4_MAC_ROW0
	ADDQ   $8, AX

next1_4:
	CMPQ AX, DX
	JL   elem1_4

	LEAQ (R9)(R10*2), AX
	TILE4_STORE(Y0, Y1, Y2, Y3, 0)

done_4:
	VZEROUPPER
	RET

// func dotRows4(q, r0, r1, r2, r3 []float64, out *[4]float64)
//
// out[j] = r_j·q over d = len(q) ≥ 4: dotTile4's trailing-row path with
// the operands turned around — q is the one data row (Y8), the four
// candidate rows, each at its own address, are the four queries
// (Y10-Y13). Each row is loaded once, straight from where it lies; the
// same +0-started accumulators, unfused VMULPD/VADDPD per 4-double
// chunk, VMOVSD element tail into lane 0 and (s0+s1)+(s2+s3) reduction,
// so out[j] is dotRangeGeneric's chain (x·y = y·x exactly). The four
// scores are stored contiguously: R10 = 8 turns TILE4_STORE's four
// score runs into out[0..3].
TEXT ·dotRows4(SB), NOSPLIT, $0-128
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), DX
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), R11
	MOVQ r2_base+72(FP), R12
	MOVQ r3_base+96(FP), R13
	MOVQ out+120(FP), R9
	MOVQ $8, R10
	SHLQ $3, DX           // row length in bytes
	MOVQ DX, BX
	ANDQ $-32, BX         // bytes of it in whole 4-double chunks
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

	PCALIGN $64 // the loop head starts a cache line, wherever the code around it moves
chunk_r4:
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD (SI)(AX*1), Y10
	VMOVUPD (R11)(AX*1), Y11
	VMOVUPD (R12)(AX*1), Y12
	VMOVUPD (R13)(AX*1), Y13
	TILE4_MAC_ROW0
	ADDQ    $32, AX
	CMPQ    AX, BX
	JL      chunk_r4
	JMP     next_r4

elem_r4:
	VMOVSD (DI)(AX*1), X8
	VMOVSD (SI)(AX*1), X10
	VMOVSD (R11)(AX*1), X11
	VMOVSD (R12)(AX*1), X12
	VMOVSD (R13)(AX*1), X13
	TILE4_MAC_ROW0
	ADDQ   $8, AX

next_r4:
	CMPQ AX, DX
	JL   elem_r4

	LEAQ (R9)(R10*2), AX
	TILE4_STORE(Y0, Y1, Y2, Y3, 0)
	VZEROUPPER
	RET

// func skipBelow(buf []float64, thr float64, unsigned bool) int
//
// Returns the start of the first whole 16-score group of buf holding a
// score s with !(s < thr) — |s| when unsigned — else len(buf) &^ 15, so
// a partial last group is never read. Each group is four VANDPD (Y14:
// the sign-clearing mask when unsigned, all ones otherwise), four
// VCMPPD NLT_UQ against thr broadcast in Y15 (unordered, so a NaN is
// never skipped), three VORPD and one VMOVMSKPD.
TEXT ·skipBelow(SB), NOSPLIT, $0-48
	MOVQ         buf_base+0(FP), SI
	MOVQ         buf_len+8(FP), CX
	ANDQ         $-16, CX
	VBROADCASTSD thr+24(FP), Y15
	MOVBQZX      unsigned+32(FP), AX
	SHLQ         $63, AX
	NOTQ         AX           // 0x7FF…F when unsigned, else all ones
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	XORQ         DX, DX

	PCALIGN $64 // the loop head starts a cache line, wherever the code around it moves
group_sb:
	CMPQ      DX, CX
	JAE       done_sb
	VANDPD    (SI)(DX*8), Y14, Y0
	VANDPD    32(SI)(DX*8), Y14, Y1
	VANDPD    64(SI)(DX*8), Y14, Y2
	VANDPD    96(SI)(DX*8), Y14, Y3
	VCMPPD    $5, Y15, Y0, Y0 // NLT_UQ: !(s < thr)
	VCMPPD    $5, Y15, Y1, Y1
	VCMPPD    $5, Y15, Y2, Y2
	VCMPPD    $5, Y15, Y3, Y3
	VORPD     Y1, Y0, Y0
	VORPD     Y3, Y2, Y2
	VORPD     Y2, Y0, Y0
	VMOVMSKPD Y0, AX
	TESTL     AX, AX
	JNZ       done_sb
	ADDQ      $16, DX
	JMP       group_sb

done_sb:
	MOVQ DX, ret+40(FP)
	VZEROUPPER
	RET

// func x86HasAVX512F() bool
TEXT ·x86HasAVX512F(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)

	// Highest supported leaf must reach 7.
	MOVL $0, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JL   done512

	// Leaf 1 ECX: OSXSAVE (bit 27).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27), CX
	JZ   done512

	// XCR0 bits 1 (XMM), 2 (YMM), 5 (opmask), 6 (upper halves of
	// Z0-Z15) and 7 (Z16-Z31) must all be OS-enabled: dotTile8 keeps its
	// products in Z16-Z23.
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  done512

	// Leaf 7 subleaf 0 EBX: AVX512F (bit 16).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<16), BX
	JZ   done512
	MOVB $1, ret+0(FP)

done512:
	RET

// OCTET_PACK_CHUNK and OCTET_PACK_ELEM store one query pair's zmm of a
// pack step at off(R10): the first query's part, read at a, in the low
// half, the second's, DX bytes further on, in the high half — 4 doubles
// each, or one element with lanes 1-3 of its half zeroed.
#define OCTET_PACK_CHUNK(a, off) \
	VMOVUPD      (a), Y14;                \
	VINSERTF64X4 $1, (a)(DX*1), Z14, Z14; \
	VMOVUPD      Z14, off(R10)

#define OCTET_PACK_ELEM(a, off) \
	VMOVSD       (a), X14;          \
	VMOVSD       (a)(DX*1), X15;    \
	VINSERTF64X4 $1, Y15, Z14, Z14; \
	VMOVUPD      Z14, off(R10)

// OCTET_MAC is one step of dotTile8's row-pair loop: the step's two row
// parts, each broadcast to both halves, ride in Z8 (row 0) and Z9
// (row 1); the four packed query pairs are loaded from R11 into Z10-Z13.
// Accumulators are Z0-Z3 (row 0 × pairs 0..3) and Z4-Z7 (row 1 × pairs
// 0..3); products go through Z16-Z23.
#define OCTET_MAC \
	VMOVUPD (R11), Z10;    \
	VMOVUPD 64(R11), Z11;  \
	VMOVUPD 128(R11), Z12; \
	VMOVUPD 192(R11), Z13; \
	VMULPD  Z10, Z8, Z16;  \
	VADDPD  Z16, Z0, Z0;   \
	VMULPD  Z11, Z8, Z17;  \
	VADDPD  Z17, Z1, Z1;   \
	VMULPD  Z12, Z8, Z18;  \
	VADDPD  Z18, Z2, Z2;   \
	VMULPD  Z13, Z8, Z19;  \
	VADDPD  Z19, Z3, Z3;   \
	VMULPD  Z10, Z9, Z20;  \
	VADDPD  Z20, Z4, Z4;   \
	VMULPD  Z11, Z9, Z21;  \
	VADDPD  Z21, Z5, Z5;   \
	VMULPD  Z12, Z9, Z22;  \
	VADDPD  Z22, Z6, Z6;   \
	VMULPD  Z13, Z9, Z23;  \
	VADDPD  Z23, Z7, Z7;   \
	ADDQ    $256, R11

// OCTET_HALVES folds one query pair's two accumulators, a (row 0) and
// b (row 1), into w: per query half, [s0+s1 of row 0, of row 1,
// s2+s3 of row 0, of row 1]. VUNPCKLPD takes lanes 0 and 2, s0 and s2,
// as the left operands, as the Go chain's (s0+s1)+(s2+s3) has them.
#define OCTET_HALVES(a, b, w, t) \
	VUNPCKLPD b, a, w; \
	VUNPCKHPD b, a, t; \
	VADDPD    t, w, w

// func dotTile8(p []float64, d int, q, pack, out []float64)
//
// nr = len(out)/8 rows of d doubles (d ≥ 4) against the 8 query rows of
// q: dotRangeGeneric's chain per (row, query). The octet is first
// packed chunk-major in query pairs: for each 4-double chunk of a row,
// then each of its d mod 4 trailing elements, four zmm, pair m's being
// [q(2m) part | q(2m+1) part], an element in lane 0 of its half and
// lanes 1-3 zeroed. A data row's step is broadcast to both halves —
// VBROADCASTF64X4 for a chunk, a VMOVSD (lanes 1-3 zeroed) inserted
// into the high half for an element — so lane k of each half is the Go
// kernel's s_k of one query: every accumulator starts at +0 and takes
// one unfused VMULPD/VADDPD per step, and the element steps add
// +0·+0 = +0 in lanes 1-3, which leaves sums begun at +0 unchanged. Two
// rows at a time: the 8 accumulators reduce (OCTET_HALVES, then
// VSHUFF64X2 $0x88 and $0xDD pick the s0+s1 and s2+s3 lanes of two
// pairs, and one VADDPD adds them) to two zmm whose 128-bit lanes hold
// each query's (row 0, row 1) scores, stored 16 bytes at a time. An odd
// last row is scored as both rows of a pair and stored 8 bytes at a
// time. Every load stays inside its row.
TEXT ·dotTile8(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ d+24(FP), DX
	MOVQ q_base+32(FP), SI
	MOVQ pack_base+56(FP), R14
	MOVQ out_base+80(FP), R9
	MOVQ out_len+88(FP), CX
	SHRQ $3, CX           // rows
	SHLQ $3, DX           // row length in bytes
	MOVQ DX, BX
	ANDQ $-32, BX         // bytes of it in whole 4-double chunks

	// Pack: R11, R12, R13 and R8 walk query rows 0, 2, 4 and 6, R10 the
	// pack, 256 bytes per step.
	MOVQ SI, R11
	LEAQ (SI)(DX*2), R12
	LEAQ (SI)(DX*4), R13
	LEAQ (R13)(DX*2), R8
	MOVQ R14, R10
	XORQ AX, AX

pack_chunk:
	OCTET_PACK_CHUNK(R11, 0)
	OCTET_PACK_CHUNK(R12, 64)
	OCTET_PACK_CHUNK(R13, 128)
	OCTET_PACK_CHUNK(R8, 192)
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R8
	ADDQ $256, R10
	ADDQ $32, AX
	CMPQ AX, BX
	JL   pack_chunk
	JMP  pack_next

pack_elem:
	OCTET_PACK_ELEM(R11, 0)
	OCTET_PACK_ELEM(R12, 64)
	OCTET_PACK_ELEM(R13, 128)
	OCTET_PACK_ELEM(R8, 192)
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ $8, R8
	ADDQ $256, R10
	ADDQ $8, AX

pack_next:
	CMPQ AX, DX
	JL   pack_elem

	MOVQ CX, R10
	SHLQ $3, R10           // bytes from one query's scores to the next's
	LEAQ (R10)(R10*2), R12 // three of them

loop_8:
	TESTQ CX, CX
	JZ    done_8
	LEAQ  (DI)(DX*1), R8
	CMPQ  CX, $1
	JNE   rows_8
	MOVQ  DI, R8          // one row left: score it as both rows

rows_8:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   R14, R11
	XORQ   AX, AX

	PCALIGN $64 // the loop head starts a cache line, wherever the code around it moves
chunk_8:
	VBROADCASTF64X4 (DI)(AX*1), Z8
	VBROADCASTF64X4 (R8)(AX*1), Z9
	OCTET_MAC
	ADDQ $32, AX
	CMPQ AX, BX
	JL   chunk_8
	JMP  next_8

elem_8:
	VMOVSD       (DI)(AX*1), X8
	VMOVSD       (R8)(AX*1), X9
	VINSERTF64X4 $1, Y8, Z8, Z8
	VINSERTF64X4 $1, Y9, Z9, Z9
	OCTET_MAC
	ADDQ $8, AX

next_8:
	CMPQ AX, DX
	JL   elem_8

	OCTET_HALVES(Z0, Z4, Z8, Z16)
	OCTET_HALVES(Z1, Z5, Z9, Z17)
	OCTET_HALVES(Z2, Z6, Z10, Z18)
	OCTET_HALVES(Z3, Z7, Z11, Z19)
	VSHUFF64X2 $0x88, Z9, Z8, Z12
	VSHUFF64X2 $0xDD, Z9, Z8, Z16
	VADDPD     Z16, Z12, Z12  // lane j: query j's (row 0, row 1)
	VSHUFF64X2 $0x88, Z11, Z10, Z13
	VSHUFF64X2 $0xDD, Z11, Z10, Z17
	VADDPD     Z17, Z13, Z13  // lane j: query 4+j's
	LEAQ       (R9)(R10*4), R13
	CMPQ       CX, $1
	JEQ        last_8

	VMOVUPD       X12, (R9)
	VEXTRACTF32X4 $1, Z12, (R9)(R10*1)
	VEXTRACTF32X4 $2, Z12, (R9)(R10*2)
	VEXTRACTF32X4 $3, Z12, (R9)(R12*1)
	VMOVUPD       X13, (R13)
	VEXTRACTF32X4 $1, Z13, (R13)(R10*1)
	VEXTRACTF32X4 $2, Z13, (R13)(R10*2)
	VEXTRACTF32X4 $3, Z13, (R13)(R12*1)

	LEAQ (R8)(DX*1), DI
	ADDQ $16, R9
	SUBQ $2, CX
	JMP  loop_8

last_8:
	VMOVSD        X12, (R9)
	VEXTRACTF32X4 $1, Z12, X14
	VMOVSD        X14, (R9)(R10*1)
	VEXTRACTF32X4 $2, Z12, X14
	VMOVSD        X14, (R9)(R10*2)
	VEXTRACTF32X4 $3, Z12, X14
	VMOVSD        X14, (R9)(R12*1)
	VMOVSD        X13, (R13)
	VEXTRACTF32X4 $1, Z13, X14
	VMOVSD        X14, (R13)(R10*1)
	VEXTRACTF32X4 $2, Z13, X14
	VMOVSD        X14, (R13)(R10*2)
	VEXTRACTF32X4 $3, Z13, X14
	VMOVSD        X14, (R13)(R12*1)

done_8:
	VZEROUPPER
	RET
