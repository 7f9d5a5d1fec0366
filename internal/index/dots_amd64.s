#include "textflag.h"

// AVX2 body of Store.dots. One vector accumulator per row holds dot's four
// partial sums s0…s3 in its four lanes: lane j adds a[i]·b[i] for i ≡ j
// (mod 4), i ascending from +0, with VMULPD then VADDPD, never fused — the
// IEEE operations of dot's loop, in its order. A 4×4 transpose then puts one
// partial sum of all four rows in each vector, and adding those vectors in
// order is dot's ((s0+s1)+s2)+s3 for four rows at once. Loads are unaligned.

// DOTROW adds a[i…i+3]·row[i…i+3] (a in Y4, i = AX/8) to acc.
#define DOTROW(row, acc, tmp) \
	VMULPD (row)(AX*1), Y4, tmp \
	VADDPD tmp, acc, acc

// ROWADDR sets reg to the address of row rows[k] of data (DX), CX bytes a row.
#define ROWADDR(k, reg) \
	MOVLQSX 4*k(BX), reg \
	IMULQ   CX, reg      \
	ADDQ    DX, reg

// func dotsAVX2(out, q *float64, d int, data *float64, rows *int32, n int)
//
// out[k] = dot(q, data[rows[k]·d : rows[k]·d+d]) for k < n, a positive
// multiple of 4; d is a positive multiple of 4 and every rows[k] a valid row.
TEXT ·dotsAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ d+16(FP), CX
	MOVQ data+24(FP), DX
	MOVQ rows+32(FP), BX
	MOVQ n+40(FP), R12
	SHLQ $3, CX

group:
	ROWADDR(0, R8)
	ROWADDR(1, R9)
	ROWADDR(2, R10)
	ROWADDR(3, R11)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

chunk:
	VMOVUPD (SI)(AX*1), Y4
	DOTROW(R8, Y0, Y5)
	DOTROW(R9, Y1, Y6)
	DOTROW(R10, Y2, Y7)
	DOTROW(R11, Y3, Y8)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     chunk

	// Y0…Y3 are rows 0…3's (s0, s1, s2, s3); Y4…Y7 become s0…s3's
	// (row0, row1, row2, row3).
	VUNPCKLPD  Y1, Y0, Y8
	VUNPCKHPD  Y1, Y0, Y9
	VUNPCKLPD  Y3, Y2, Y10
	VUNPCKHPD  Y3, Y2, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4
	VPERM2F128 $0x20, Y11, Y9, Y5
	VPERM2F128 $0x31, Y10, Y8, Y6
	VPERM2F128 $0x31, Y11, Y9, Y7
	VADDPD     Y5, Y4, Y4
	VADDPD     Y6, Y4, Y4
	VADDPD     Y7, Y4, Y4
	VMOVUPD    Y4, (DI)
	ADDQ       $32, DI
	ADDQ       $16, BX
	SUBQ       $4, R12
	JNZ        group

	VZEROUPPER
	RET
