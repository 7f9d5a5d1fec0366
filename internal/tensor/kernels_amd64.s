#include "textflag.h"

// AVX2 bodies of the two loop families of kernels.go. A lane is always one
// output element: what VMULPD and VADDPD do to it is the IEEE multiply and
// add the Go loop issues for that element, in the same order, never fused.
// No sum is split across lanes (argument: DESIGN.md §15 "Lanes are output
// elements"). Loads are unaligned, rows start at any 8-byte offset.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// TERM adds c·row[off/8 … off/8+3] to acc, c broadcast in Y8, row at R12.
#define TERM(off, acc, tmp) \
	VMULPD off(R12), Y8, tmp \
	VADDPD tmp, acc, acc

// SKIPZERO jumps to label when the coefficient at R11 is +0 or −0 (NaN is
// not), the terms axpyRows skips rather than adds: all bits clear once the
// sign is shifted out.
#define SKIPZERO(label) \
	MOVQ (R11), AX \
	ADDQ AX, AX    \
	JZ   label

// NEXTTERM steps to the next coefficient and row and loops while any is left.
#define NEXTTERM(label) \
	ADDQ R8, R11 \
	ADDQ R9, R12 \
	DECQ R13     \
	JNZ  label

// func axpyRowsAVX2(d *float64, w int, coef *float64, stride int, b *float64, ld, rows int)
//
// d[j] += Σ_k c_k·b[k·ld+j] for j < w (a positive multiple of 4) and
// k = 0…rows−1 (rows > 0) ascending, c_k = coef[k·stride], zero c_k skipped.
// A strip of d stays in registers across all k: loaded once, stored once.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ w+8(FP), CX
	MOVQ coef+16(FP), SI
	MOVQ stride+24(FP), R8
	MOVQ b+32(FP), DX
	MOVQ ld+40(FP), R9
	MOVQ rows+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9

strip32:
	CMPQ    CX, $32
	JLT     strip16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R10, R13

term32:
	SKIPZERO(next32)
	VBROADCASTSD (R11), Y8
	TERM(0, Y0, Y9)
	TERM(32, Y1, Y10)
	TERM(64, Y2, Y11)
	TERM(96, Y3, Y12)
	TERM(128, Y4, Y9)
	TERM(160, Y5, Y10)
	TERM(192, Y6, Y11)
	TERM(224, Y7, Y12)

next32:
	NEXTTERM(term32)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, DX
	SUBQ    $32, CX
	JMP     strip32

strip16:
	CMPQ    CX, $16
	JLT     strip4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R10, R13

term16:
	SKIPZERO(next16)
	VBROADCASTSD (R11), Y8
	TERM(0, Y0, Y9)
	TERM(32, Y1, Y10)
	TERM(64, Y2, Y11)
	TERM(96, Y3, Y12)

next16:
	NEXTTERM(term16)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $16, CX

strip4:
	TESTQ   CX, CX
	JZ      done
	VMOVUPD 0(DI), Y0
	MOVQ    SI, R11
	MOVQ    DX, R12
	MOVQ    R10, R13

term4:
	SKIPZERO(next4)
	VBROADCASTSD (R11), Y8
	TERM(0, Y0, Y9)

next4:
	NEXTTERM(term4)
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JMP     strip4

done:
	VZEROUPPER
	RET

// SUMTERM adds coef·row[j…j+7] to the two sums in Y0 and Y1, j = AX/8.
#define SUMTERM(row, coef) \
	VMULPD (row)(AX*1), coef, Y2   \
	VADDPD Y2, Y0, Y0              \
	VMULPD 32(row)(AX*1), coef, Y3 \
	VADDPD Y3, Y1, Y1

// SUMZERO starts the two sums at +0: 0 + c·x is not c·x when that is −0.
#define SUMZERO \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1

// SUMADD adds the two sums to d[j…j+7] and loops to label while j < w.
#define SUMADD(label) \
	VADDPD  (DI)(AX*1), Y0, Y0   \
	VADDPD  32(DI)(AX*1), Y1, Y1 \
	VMOVUPD Y0, (DI)(AX*1)       \
	VMOVUPD Y1, 32(DI)(AX*1)     \
	ADDQ    $64, AX              \
	CMPQ    AX, CX               \
	JLT     label                \
	VZEROUPPER                   \
	RET

// func axpySumAVX2(d *float64, w, n int, c *[tile]float64, r *[tile][]float64)
//
// d[j] += (((+0 + c[0]·r[0][j]) + c[1]·r[1][j]) + …) over the first n ≤ 4
// rows, for j < w (a positive multiple of 8, two vectors a pass): the sum is
// formed on its own and added as one term. Rows from n on are not read. One
// loop per n: a test of n inside the loop costs as much as the arithmetic.
TEXT ·axpySumAVX2(SB), NOSPLIT, $0-40
	MOVQ         d+0(FP), DI
	MOVQ         w+8(FP), CX
	MOVQ         n+16(FP), BX
	MOVQ         c+24(FP), SI
	MOVQ         r+32(FP), DX
	VBROADCASTSD 0(SI), Y4
	VBROADCASTSD 8(SI), Y5
	VBROADCASTSD 16(SI), Y6
	VBROADCASTSD 24(SI), Y7
	MOVQ         0(DX), R8 // the data pointers of the four slice headers
	MOVQ         24(DX), R9
	MOVQ         48(DX), R10
	MOVQ         72(DX), R11
	SHLQ         $3, CX
	XORQ         AX, AX
	CMPQ         BX, $1
	JLT          sum0
	JEQ          sum1
	CMPQ         BX, $3
	JLT          sum2
	JEQ          sum3

sum4:
	SUMZERO
	SUMTERM(R8, Y4)
	SUMTERM(R9, Y5)
	SUMTERM(R10, Y6)
	SUMTERM(R11, Y7)
	SUMADD(sum4)

sum3:
	SUMZERO
	SUMTERM(R8, Y4)
	SUMTERM(R9, Y5)
	SUMTERM(R10, Y6)
	SUMADD(sum3)

sum2:
	SUMZERO
	SUMTERM(R8, Y4)
	SUMTERM(R9, Y5)
	SUMADD(sum2)

sum1:
	SUMZERO
	SUMTERM(R8, Y4)
	SUMADD(sum1)

sum0:
	SUMZERO
	SUMADD(sum0)

// ROW sets reg to the address of row live[i] of b (DX), CX bytes a row.
#define ROW(i, reg) \
	MOVQ  8*i(DI), reg \
	IMULQ CX, reg      \
	ADDQ  DX, reg

// DOT4X4 adds to lane l of acc the four products a[i]·row_l[i] at byte
// offset AX, i ascending: the products of one row come out of VMULPD side by
// side, a 4×4 transpose puts one i in each vector, and the four vectors are
// added in order — each lane runs DotVec's own chain. a[i…i+3] is in Y2.
#define DOT4X4(r0, r1, r2, r3, acc) \
	VMULPD     (r0)(AX*1), Y2, Y4 \
	VMULPD     (r1)(AX*1), Y2, Y5 \
	VMULPD     (r2)(AX*1), Y2, Y6 \
	VMULPD     (r3)(AX*1), Y2, Y7 \
	VUNPCKLPD  Y5, Y4, Y8         \
	VUNPCKHPD  Y5, Y4, Y9         \
	VUNPCKLPD  Y7, Y6, Y10        \
	VUNPCKHPD  Y7, Y6, Y11        \
	VPERM2F128 $0x20, Y10, Y8, Y4 \
	VADDPD     Y4, acc, acc       \
	VPERM2F128 $0x20, Y11, Y9, Y5 \
	VADDPD     Y5, acc, acc       \
	VPERM2F128 $0x31, Y10, Y8, Y6 \
	VADDPD     Y6, acc, acc       \
	VPERM2F128 $0x31, Y11, Y9, Y7 \
	VADDPD     Y7, acc, acc

// func dotLiveAVX2(out, a *float64, d int, b *float64, live *[2 * tile]int, n int, add bool)
//
// out[live[l]] = (add: out[live[l]] +) Σ_i a[i]·b[live[l]·d+i], i ascending
// from +0, for l < n; d is a positive multiple of 4. n = 8 runs two groups
// of four rows, an accumulator vector each — one vector alone waits on its
// own add latency, as one scalar chain does; n ≤ 4 runs one group over
// live[0…3], whose entries from n on must name valid rows and are not stored.
TEXT ·dotLiveAVX2(SB), NOSPLIT, $64-49
	MOVQ   a+8(FP), SI
	MOVQ   d+16(FP), CX
	MOVQ   b+24(FP), DX
	MOVQ   live+32(FP), DI
	SHLQ   $3, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	ROW(0, R8)
	ROW(1, R9)
	ROW(2, R10)
	ROW(3, R11)
	XORQ   AX, AX
	CMPQ   n+40(FP), $4
	JGT    eight

four:
	VMOVUPD (SI)(AX*1), Y2
	DOT4X4(R8, R9, R10, R11, Y0)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     four
	JMP     put

eight:
	ROW(4, R12)
	ROW(5, R13)
	ROW(6, BX)
	MOVQ  56(DI), AX // row 7 takes b's register
	IMULQ CX, AX
	ADDQ  AX, DX
	XORQ  AX, AX

eightloop:
	VMOVUPD (SI)(AX*1), Y2
	DOT4X4(R8, R9, R10, R11, Y0)
	DOT4X4(R12, R13, BX, DX, Y1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     eightloop

put:
	VMOVUPD Y0, 0(SP)
	VMOVUPD Y1, 32(SP)
	VZEROUPPER
	MOVQ    out+0(FP), SI
	MOVQ    n+40(FP), CX
	MOVBLZX add+48(FP), BX
	XORQ    AX, AX

lane:
	MOVQ  (DI)(AX*8), R8
	MOVSD (SP)(AX*8), X0
	TESTQ BX, BX
	JZ    store
	ADDSD (SI)(R8*8), X0

store:
	MOVSD X0, (SI)(R8*8)
	INCQ  AX
	CMPQ  AX, CX
	JLT   lane
	RET
