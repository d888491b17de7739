// The AVX-512 VNNI int8 tile kernel. See quant_amd64.go for the
// contract and storei8.go for the tier. Lanes are rows: a 16-row group
// of a block is read one 4-code column at a time, one VPGATHERDD at
// stride d, so no dot ever needs a horizontal reduction. The column is
// biased to unsigned (XOR 0x80: u = code + 128) for VPDPBUSD, which
// multiplies unsigned bytes by signed ones and adds each lane's four
// products into its int32 accumulator; each query of the tile (up to 8)
// takes its own 4 codes of the column as a broadcast memory operand, so
// one gather serves the whole tile. An accumulator starts at −128·Σq,
// which takes the bias back out, and ends as the exact int32 dot —
// wrapping like the Go loop's int32 sum, so every tier's dots agree.
// A row's last column starts at min(4c, d − 4), inside the row, with
// the query codes it has already counted zeroed, so no load leaves its
// row; the rows past the block's end are masked out of the gather and
// the stores. Then one masked compare per query gives its 16 mask bits:
// dot > floor, or |dot| > floor with both read as unsigned.

#include "textflag.h"

// lanes<> is the row index of each lane, 0..15.
DATA lanes<>+0(SB)/4, $0
DATA lanes<>+4(SB)/4, $1
DATA lanes<>+8(SB)/4, $2
DATA lanes<>+12(SB)/4, $3
DATA lanes<>+16(SB)/4, $4
DATA lanes<>+20(SB)/4, $5
DATA lanes<>+24(SB)/4, $6
DATA lanes<>+28(SB)/4, $7
DATA lanes<>+32(SB)/4, $8
DATA lanes<>+36(SB)/4, $9
DATA lanes<>+40(SB)/4, $10
DATA lanes<>+44(SB)/4, $11
DATA lanes<>+48(SB)/4, $12
DATA lanes<>+52(SB)/4, $13
DATA lanes<>+56(SB)/4, $14
DATA lanes<>+60(SB)/4, $15
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// TILE_INIT starts query j's accumulator at its −128·Σq, if the tile has
// a query j.
#define TILE_INIT(j, acc) \
	CMPQ         R11, $j; \
	JLE          init_done; \
	VPBROADCASTD (j*4)(R12), acc

// TILE_DOT adds query j's share of the gathered column Z0.
#define TILE_DOT(j, acc) \
	CMPQ          R11, $j; \
	JLE           col_next; \
	VPDPBUSD.BCST (j*4)(CX), Z0, acc

// TILE_SIGNED stores query j's dots and its mask bits, dot > floor.
#define TILE_SIGNED(j, acc) \
	CMPQ          R11, $j; \
	JLE           stored; \
	VMOVDQU32     acc, K1, (j*1024)(R9); \
	VPCMPGTD.BCST (j*4)(R13), acc, K1, K2; \
	KMOVW         K2, (j*32)(R10)

// TILE_UNSIGNED stores query j's dots and its mask bits, |dot| > floor
// unsigned (predicate 6, not less or equal).
#define TILE_UNSIGNED(j, acc) \
	CMPQ         R11, $j; \
	JLE          stored; \
	VMOVDQU32    acc, K1, (j*1024)(R9); \
	VPABSD       acc, acc; \
	VPCMPUD.BCST $6, (j*4)(R13), acc, K1, K2; \
	KMOVW        K2, (j*32)(R10)

// func dotI8Tile(p []int8, d, n int, q []int32, qstride int, nbias, floors []int32, unsigned bool, dots []int32, mask []uint64)
//
// Registers: DI the group's first row, DX d, R8 the rows left, SI the
// tile's column 0 and BX a column's stride in bytes (CX walks them),
// R14 the column's byte offset, R9/R10 the group's dots and mask bits
// (query j at +1024j and +32j bytes), R11 the tile's query count, R12
// the −128·Σq and R13 the floors. Z1 is 0x80 in every byte, Z2 the
// lanes' row offsets (lane·d), Z8-Z15 the accumulators, K1 the group's
// live rows; the gather consumes a copy of it in K2.
TEXT ·dotI8Tile(SB), NOSPLIT, $0-176
	MOVQ p_base+0(FP), DI
	MOVQ d+24(FP), DX
	MOVQ n+32(FP), R8
	MOVQ q_base+40(FP), SI
	MOVQ qstride+64(FP), BX
	SHLQ $2, BX
	MOVQ nbias_base+72(FP), R12
	MOVQ floors_base+96(FP), R13
	MOVQ floors_len+104(FP), R11
	MOVQ dots_base+128(FP), R9
	MOVQ mask_base+152(FP), R10

	MOVL         $0x80808080, AX
	VPBROADCASTD AX, Z1
	VPBROADCASTD DX, Z2
	VPMULLD      lanes<>(SB), Z2, Z2

group:
	TESTQ R8, R8
	JLE   done
	MOVL  $0xFFFF, AX
	CMPQ  R8, $16
	JGE   live
	MOVQ  R8, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX

live:
	KMOVW AX, K1

	VPBROADCASTD (R12), Z8
	TILE_INIT(1, Z9)
	TILE_INIT(2, Z10)
	TILE_INIT(3, Z11)
	TILE_INIT(4, Z12)
	TILE_INIT(5, Z13)
	TILE_INIT(6, Z14)
	TILE_INIT(7, Z15)

init_done:
	XORQ R14, R14
	MOVQ SI, CX

col:
	MOVQ    DX, AX
	SUBQ    $4, AX
	CMPQ    R14, AX
	CMOVQLT R14, AX
	ADDQ    DI, AX
	KMOVW   K1, K2
	VPGATHERDD (AX)(Z2*1), K2, Z0
	VPXORD  Z1, Z0, Z0

	VPDPBUSD.BCST (CX), Z0, Z8
	TILE_DOT(1, Z9)
	TILE_DOT(2, Z10)
	TILE_DOT(3, Z11)
	TILE_DOT(4, Z12)
	TILE_DOT(5, Z13)
	TILE_DOT(6, Z14)
	TILE_DOT(7, Z15)

col_next:
	ADDQ BX, CX
	ADDQ $4, R14
	CMPQ R14, DX
	JLT  col

	CMPB unsigned+120(FP), $0
	JNE  abs

	VMOVDQU32     Z8, K1, (R9)
	VPCMPGTD.BCST (R13), Z8, K1, K2
	KMOVW         K2, (R10)
	TILE_SIGNED(1, Z9)
	TILE_SIGNED(2, Z10)
	TILE_SIGNED(3, Z11)
	TILE_SIGNED(4, Z12)
	TILE_SIGNED(5, Z13)
	TILE_SIGNED(6, Z14)
	TILE_SIGNED(7, Z15)
	JMP           stored

abs:
	VMOVDQU32    Z8, K1, (R9)
	VPABSD       Z8, Z8
	VPCMPUD.BCST $6, (R13), Z8, K1, K2
	KMOVW        K2, (R10)
	TILE_UNSIGNED(1, Z9)
	TILE_UNSIGNED(2, Z10)
	TILE_UNSIGNED(3, Z11)
	TILE_UNSIGNED(4, Z12)
	TILE_UNSIGNED(5, Z13)
	TILE_UNSIGNED(6, Z14)
	TILE_UNSIGNED(7, Z15)

stored:
	MOVQ DX, AX
	SHLQ $4, AX
	ADDQ AX, DI
	ADDQ $64, R9
	ADDQ $2, R10
	SUBQ $16, R8
	JMP  group

done:
	VZEROUPPER
	RET

// func x86HasAVX512VNNI() bool
//
// CPUID leaf 7 subleaf 0 ECX bit 11. The caller pairs it with
// x86HasAVX512F, which checks the leaf and the OS-enabled register state.
TEXT ·x86HasAVX512VNNI(SB), NOSPLIT, $0-1
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
	MOVB $1, ret+0(FP)

novnni:
	RET
