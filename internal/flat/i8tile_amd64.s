// The AVX-512 VNNI int8 tile kernel. See quant_amd64.go for the
// contract and storei8.go for the tier. It reads rows, whole rows per
// load, and lays a 16-row group out in dword columns in registers, lane
// r row r: column t holds the codes 4t..4t+3 of every row of the group,
// biased to unsigned (XOR 0x80: u = code + 128) for VPDPBUSD, which
// multiplies unsigned bytes by signed ones and adds each lane's four
// products into its int32 accumulator. The transpose is paid once per
// group, not once per query: each query of the tile (up to 8) takes its
// 4 codes of a column as a broadcast memory operand, and its accumulator
// ends as its 16 dots, lane r row r, with no reduction.
//
// At d = 32 a whole group is eight loads of two rows: VPERMT2D and
// VSHUFI64X2 regroup them in qwords, and VSHUFPS then splits their even
// and odd dwords. Elsewhere each 16-code piece of four rows m, m+4,
// m+8, m+12 is read with one load and three VINSERTI32X4 into the
// 128-bit blocks of a zmm, and four such zmm transpose block by block
// (VPUNPCKL/HDQ, VPUNPCKL/HQDQ); a piece starts at min(16k, d − 16), so
// no load leaves its row, the codes an earlier piece covered zero in the
// query (i8Tile.pack), and below d = 16 each row's d codes are read
// byte-masked. Past d = 64 the rows go 64 codes at a time, the partial
// dots carried in dots between passes. The rows of a group past the end
// of p are read as its last row, and neither stored nor counted.
//
// An accumulator starts at −128·Σq, which takes the bias back out once
// per row, and ends as the exact int32 dot — wrapping like the Go loop's
// int32 sum, so every tier's dots agree. Then one masked compare per
// query gives its 16 mask bits: dot > floor, or |dot| > floor with both
// read as unsigned.

#include "textflag.h"

// The VPERMT2D indexes HALF applies to a pair of loads a, b (dword i of
// b is 16+i), two dwords to a DATA word. perm32 (d = 32, two rows a
// load, eight dwords a row) takes qwords 0 and 1 of both rows of a, then
// of b: dwords 0 1 8 9 16 17 24 25, 2 3 10 11 18 19 26 27; perm32 + 4
// takes qwords 2 and 3.
DATA perm32<>+0(SB)/8, $0x0000000100000000
DATA perm32<>+8(SB)/8, $0x0000000900000008
DATA perm32<>+16(SB)/8, $0x0000001100000010
DATA perm32<>+24(SB)/8, $0x0000001900000018
DATA perm32<>+32(SB)/8, $0x0000000300000002
DATA perm32<>+40(SB)/8, $0x0000000b0000000a
DATA perm32<>+48(SB)/8, $0x0000001300000012
DATA perm32<>+56(SB)/8, $0x0000001b0000001a
GLOBL perm32<>(SB), RODATA|NOPTR, $64

// ROW_PTR stores row i's pointer, AX, in the frame and moves AX to the
// next row while CX, the advances left, allows: the rows past the last
// live one repeat it.
#define ROW_PTR(i) \
	MOVQ    AX, (i*8)(SP);  \
	LEAQ    (AX)(DX*1), BX; \
	DECQ    CX;             \
	CMOVQGE BX, AX

// ROWS4 stores rows i..i+3 of a whole group, R9, AX, BX and CX, and
// moves each 4 rows (R8 = 4d) on.
#define ROWS4(i) \
	MOVQ R9, (i*8)(SP);     \
	MOVQ AX, ((i+1)*8)(SP); \
	MOVQ BX, ((i+2)*8)(SP); \
	MOVQ CX, ((i+3)*8)(SP); \
	ADDQ R8, R9;            \
	ADDQ R8, AX;            \
	ADDQ R8, BX;            \
	ADDQ R8, CX

// QUAD_LOAD reads 16 codes at offset R9 of rows m, m+4, m+8 and m+12,
// one per 128-bit block of z.
#define QUAD_LOAD(m, z, x) \
	MOVQ         (m*8)(SP), AX;        \
	MOVQ         ((m+4)*8)(SP), BX;    \
	MOVQ         ((m+8)*8)(SP), CX;    \
	MOVQ         ((m+12)*8)(SP), R8;   \
	VMOVDQU      (AX)(R9*1), x;        \
	VINSERTI32X4 $1, (BX)(R9*1), z, z; \
	VINSERTI32X4 $2, (CX)(R9*1), z, z; \
	VINSERTI32X4 $3, (R8)(R9*1), z, z

// QUAD_LOAD_SHORT is QUAD_LOAD at d < 16: each row's d codes at offset
// 0, byte-masked by K2, the rest of its block zero.
#define QUAD_LOAD_SHORT(m, z) \
	MOVQ         (m*8)(SP), AX;      \
	MOVQ         ((m+4)*8)(SP), BX;  \
	MOVQ         ((m+8)*8)(SP), CX;  \
	MOVQ         ((m+12)*8)(SP), R8; \
	VMOVDQU8.Z   (AX), K2, z;        \
	VMOVDQU8.Z   (BX), K2, Z22;      \
	VINSERTI32X4 $1, X22, z, z;      \
	VMOVDQU8.Z   (CX), K2, Z22;      \
	VINSERTI32X4 $2, X22, z, z;      \
	VMOVDQU8.Z   (R8), K2, Z22;      \
	VINSERTI32X4 $3, X22, z, z

// COLUMNS biases the four quads Z0-Z3 of one piece — Q_m's block p
// row 4p+m — and transposes each block's 4×4 dwords: column t, Z(c+t),
// gets dword t of rows 4p..4p+3 in block p, lane r row r.
#define COLUMNS(c0, c1, c2, c3) \
	VPXORD      Z31, Z0, Z0;  \
	VPXORD      Z31, Z1, Z1;  \
	VPXORD      Z31, Z2, Z2;  \
	VPXORD      Z31, Z3, Z3;  \
	VPUNPCKLDQ  Z1, Z0, Z20;  \
	VPUNPCKHDQ  Z1, Z0, Z21;  \
	VPUNPCKLDQ  Z3, Z2, Z22;  \
	VPUNPCKHDQ  Z3, Z2, Z23;  \
	VPUNPCKLQDQ Z22, Z20, c0; \
	VPUNPCKHQDQ Z22, Z20, c1; \
	VPUNPCKLQDQ Z23, Z21, c2; \
	VPUNPCKHQDQ Z23, Z21, c3

// PIECE reads the piece at min(R14 + off, d − 16) (R14 the pass's
// first code, SI d − 16) of the group's rows into its four columns.
#define PIECE(off, c0, c1, c2, c3) \
	LEAQ    off(R14), R9; \
	CMPQ    R9, SI;       \
	CMOVQGT SI, R9;       \
	QUAD_LOAD(0, Z0, X0); \
	QUAD_LOAD(1, Z1, X1); \
	QUAD_LOAD(2, Z2, X2); \
	QUAD_LOAD(3, Z3, X3); \
	COLUMNS(c0, c1, c2, c3)

// SPLIT turns a pair of qword columns, half 0's a and half 1's b — qword
// lane 2b+e row 4b+e of a, row 4b+2+e of b — into two dword columns:
// the even dwords of both, then the odd ones, lane r row r.
#define SPLIT(a, b, c0, c1) \
	VSHUFPS $0x88, b, a, c0; \
	VSHUFPS $0xDD, b, a, c1

// HALF reads four loads of a whole group at a0..a3(DI), biased, and
// regroups their dwords into four vectors: VPERMT2D by ia and ib over
// the pairs (a0, a1) and (a2, a3), then VSHUFI64X2 joins the pairs'
// 256-bit halves.
#define HALF(a0, a1, a2, a3, ia, ib, c0, c1, c2, c3) \
	VPXORQ     a0(DI), Z31, Z0;     \
	VPXORQ     a1(DI), Z31, Z1;     \
	VPXORQ     a2(DI), Z31, Z2;     \
	VPXORQ     a3(DI), Z31, Z3;     \
	VMOVDQA64  Z0, Z20;             \
	VPERMT2D   Z1, ia, Z0;          \
	VPERMT2D   Z1, ib, Z20;         \
	VMOVDQA64  Z2, Z21;             \
	VPERMT2D   Z3, ia, Z2;          \
	VPERMT2D   Z3, ib, Z21;         \
	VSHUFI64X2 $0x44, Z2, Z0, c0;   \
	VSHUFI64X2 $0xEE, Z2, Z0, c1;   \
	VSHUFI64X2 $0x44, Z21, Z20, c2; \
	VSHUFI64X2 $0xEE, Z21, Z20, c3

// COLUMN_DOT adds columns c..c+3 (in z0..z3) against the query's
// codes at SI, each dword broadcast, into the accumulators Z20 (c, c+1)
// and Z21 (c+2, c+3): two chains, half as long.
#define COLUMN_DOT(c, z0, z1, z2, z3) \
	VPDPBUSD.BCST (c*4)(SI), z0, Z20;     \
	VPDPBUSD.BCST ((c+2)*4)(SI), z2, Z21; \
	VPDPBUSD.BCST ((c+1)*4)(SI), z1, Z20; \
	VPDPBUSD.BCST ((c+3)*4)(SI), z3, Z21

// func dotI8Tile(p []int8, d, n int, q []int8, qstride int, nbias, floors []int32, unsigned bool, dots []int32, mask []uint64)
//
// Registers across the loops: DI the group's first row, R12 the rows of
// p from it on, R11 and R10 its dots and mask bits of query 0, R14 the
// pass's first code of a row (0, 64, …), K1 the group's live rows; the
// frame holds the group's row pointers. Column t of a pass in Z(4+t),
// Z20 and Z21 the accumulators, Z0-Z3 and Z20-Z23 scratch, Z29 and Z30
// the HALF indexes, Z31 0x80 in every byte. In the query loop SI is the
// query's first code of the pass, R9 its dots, R13 4j, DX 4·nq, CX the
// pass's columns, AX the −128·Σq, BX the floors and R8 ≥ 0 on the last
// pass.
TEXT ·dotI8Tile(SB), NOSPLIT, $128-176
	MOVL         $0x80808080, AX
	VPBROADCASTD AX, Z31
	VMOVDQU32    perm32<>(SB), Z29
	MOVL         $4, AX
	VPBROADCASTD AX, Z30
	VPADDD       Z29, Z30, Z30
	MOVQ         p_base+0(FP), DI
	MOVQ         n+32(FP), R12
	MOVQ         dots_base+128(FP), R11
	MOVQ         mask_base+152(FP), R10

	PCALIGN $64 // the loop head starts a cache line, wherever the code around it moves
group:
	TESTQ R12, R12
	JLE   done
	MOVL  $0xFFFF, AX
	CMPQ  R12, $16
	JGE   live
	MOVQ  R12, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX

live:
	KMOVW AX, K1
	XORQ  R14, R14
	MOVQ  d+24(FP), DX
	CMPQ  R12, $16
	JLT   partial
	CMPQ  DX, $32
	JEQ   d32

	// A whole group at any other d: row i at DI + i·d.
	MOVQ DI, R9
	LEAQ (DI)(DX*1), AX
	LEAQ (DI)(DX*2), BX
	LEAQ (AX)(DX*2), CX
	LEAQ (DX*4), R8
	ROWS4(0)
	ROWS4(4)
	ROWS4(8)
	ROWS4(12)
	JMP  chunk

d32:
	// Eight loads of two rows: half h from loads h, 2+h, 4+h, 6+h,
	// each in four qword columns, split into eight dword columns.
	HALF(0, 128, 256, 384, Z29, Z30, Z12, Z13, Z14, Z15)
	HALF(64, 192, 320, 448, Z29, Z30, Z16, Z17, Z18, Z19)
	SPLIT(Z12, Z16, Z4, Z5)
	SPLIT(Z13, Z17, Z6, Z7)
	SPLIT(Z14, Z18, Z8, Z9)
	SPLIT(Z15, Z19, Z10, Z11)
	JMP queries

partial:
	MOVQ R12, CX
	DECQ CX
	MOVQ DI, AX
	ROW_PTR(0)
	ROW_PTR(1)
	ROW_PTR(2)
	ROW_PTR(3)
	ROW_PTR(4)
	ROW_PTR(5)
	ROW_PTR(6)
	ROW_PTR(7)
	ROW_PTR(8)
	ROW_PTR(9)
	ROW_PTR(10)
	ROW_PTR(11)
	ROW_PTR(12)
	ROW_PTR(13)
	ROW_PTR(14)
	ROW_PTR(15)

chunk:
	MOVQ d+24(FP), DX
	CMPQ DX, $16
	JLT  short
	LEAQ -16(DX), SI
	MOVQ DX, R13
	SUBQ R14, R13
	ADDQ $15, R13
	SHRQ $4, R13       // the pieces from R14 on
	PIECE(0, Z4, Z5, Z6, Z7)
	CMPQ R13, $2
	JLT  queries
	PIECE(16, Z8, Z9, Z10, Z11)
	CMPQ R13, $3
	JLT  queries
	PIECE(32, Z12, Z13, Z14, Z15)
	CMPQ R13, $4
	JLT  queries
	PIECE(48, Z16, Z17, Z18, Z19)
	JMP  queries

short:
	MOVQ  $1, AX
	MOVQ  DX, CX
	SHLQ  CX, AX
	DECQ  AX
	KMOVQ AX, K2
	QUAD_LOAD_SHORT(0, Z0)
	QUAD_LOAD_SHORT(1, Z1)
	QUAD_LOAD_SHORT(2, Z2)
	QUAD_LOAD_SHORT(3, Z3)
	COLUMNS(Z4, Z5, Z6, Z7)

queries:
	MOVQ DX, CX
	SUBQ R14, CX
	ADDQ $15, CX
	SHRQ $4, CX
	SHLQ $2, CX        // 4 columns a piece
	CMPQ CX, $16
	JLE  counted
	MOVQ $16, CX

counted:
	LEAQ  64(R14), R8
	SUBQ  DX, R8
	MOVQ  q_base+40(FP), SI
	ADDQ  R14, SI
	MOVQ  R11, R9
	MOVQ  nbias_base+72(FP), AX
	MOVQ  floors_base+96(FP), BX
	MOVQ  floors_len+104(FP), DX
	SHLQ  $2, DX
	XORQ  R13, R13
	TESTQ DX, DX
	JLE   passed

query:
	VPXORD       Z21, Z21, Z21
	TESTQ        R14, R14
	JNE          carried
	VPBROADCASTD (AX)(R13*1), Z20

dot:
	COLUMN_DOT(0, Z4, Z5, Z6, Z7)
	CMPQ   CX, $8
	JLT    summed
	COLUMN_DOT(4, Z8, Z9, Z10, Z11)
	CMPQ   CX, $12
	JLT    summed
	COLUMN_DOT(8, Z12, Z13, Z14, Z15)
	CMPQ   CX, $16
	JLT    summed
	COLUMN_DOT(12, Z16, Z17, Z18, Z19)

summed:
	VPADDD    Z21, Z20, Z20
	VMOVDQU32 Z20, K1, (R9)
	TESTQ     R8, R8
	JLT       next
	CMPB      unsigned+120(FP), $0
	JNE       abs
	VPCMPGTD.BCST (BX)(R13*1), Z20, K1, K2

compared:
	KMOVW K2, (R10)(R13*8)

next:
	ADDQ qstride+64(FP), SI
	ADDQ $1024, R9
	ADDQ $4, R13
	CMPQ R13, DX
	JLT  query

passed:
	TESTQ R8, R8
	JGE   grouped
	ADDQ  $64, R14
	JMP   chunk

carried:
	VMOVDQU32 (R9), Z20
	JMP       dot

abs:
	VPABSD       Z20, Z20
	VPCMPUD.BCST $6, (BX)(R13*1), Z20, K1, K2
	JMP          compared

grouped:
	MOVQ d+24(FP), AX
	SHLQ $4, AX
	ADDQ AX, DI
	SUBQ $16, R12
	ADDQ $64, R11
	ADDQ $2, R10
	JMP  group

done:
	VZEROUPPER
	RET

// func x86HasAVX512VNNIBW() bool
//
// CPUID leaf 7 subleaf 0: ECX bit 11 (AVX512_VNNI) and EBX bit 30
// (AVX512BW, the byte-masked loads). The caller pairs it with
// x86HasAVX512F, which checks the leaf and the OS-enabled register state.
TEXT ·x86HasAVX512VNNIBW(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JL   novnni
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<11), CX
	JZ   novnni
	ANDL $(1<<30), BX
	JZ   novnni
	MOVB $1, ret+0(FP)

novnni:
	RET
