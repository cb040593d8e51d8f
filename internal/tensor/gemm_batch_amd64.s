//go:build amd64

// AVX-512F kernels for the batched inference tier.
//
// fmaPanel4Asm / fmaPanel1Asm accumulate out += a @ b for four (resp. one)
// consecutive rows of a row-major activation block against one shared weight
// panel b. The panel is walked in 16-column zmm tiles so each b cache line is
// loaded once and amortized over four FMA chains — the weight-traffic
// amortization that motivates batching. Per output element both kernels
// execute the identical ascending-p FMA sequence, so a row's result is a pure
// function of its own input row: batch composition cannot change any row's
// bits, which is what makes sweep reports byte-identical at any batch size.
//
// vactAVX512 applies an elementwise activation in place: mode 0 is
// exp(x-bias) (softmax numerator), mode 1 sigmoid, mode 2 tanh. exp uses
// Cody-Waite range reduction (n = round(x*log2e), r = x - n*ln2hi - n*ln2lo),
// a degree-11 Taylor polynomial in r, and VSCALEFPD for the 2^n scale;
// relative error is ~1e-14, well inside the 1e-9 equivalence budget against
// the math.Exp-based autograd activations. Every clamp takes x as the
// *second* source operand: VMINPD/VMAXPD return that operand when either is
// NaN, so a NaN input comes out NaN (as the math package would give) rather
// than as the clamp bound — a poisoned weight must reach the score screen,
// not be laundered into a healthy-looking gate value.

#include "textflag.h"

// func fmaPanel4Asm(out, a, b *float64, k, n int64)
TEXT ·fmaPanel4Asm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R9

	MOVQ R8, R10
	SHLQ $3, R10  // a row stride in bytes (k*8)
	MOVQ R9, R11
	SHLQ $3, R11  // b/out row stride in bytes (n*8)
	MOVQ R9, R15  // columns remaining

tile4:
	TESTQ R15, R15
	JLE   done4

	// Column masks for this 16-wide tile: K2 covers lanes 0-7, K3 lanes 8-15.
	MOVQ R15, R13
	CMPQ R13, $16
	JLE  lanes4
	MOVQ $16, R13

lanes4:
	MOVQ  $1, AX
	MOVQ  R13, CX
	SHLQ  CX, AX
	DECQ  AX
	MOVQ  AX, BX
	ANDQ  $0xFF, BX
	KMOVW BX, K2
	SHRQ  $8, AX
	KMOVW AX, K3

	// Load the 4x16 accumulator tile from out.
	LEAQ     (DI)(R11*2), BX
	VMOVUPD.Z (DI), K2, Z0
	VMOVUPD.Z 64(DI), K3, Z1
	VMOVUPD.Z (DI)(R11*1), K2, Z2
	VMOVUPD.Z 64(DI)(R11*1), K3, Z3
	VMOVUPD.Z (BX), K2, Z4
	VMOVUPD.Z 64(BX), K3, Z5
	VMOVUPD.Z (BX)(R11*1), K2, Z6
	VMOVUPD.Z 64(BX)(R11*1), K3, Z7

	MOVQ SI, DX   // a cursor, row 0
	MOVQ R14, AX  // b cursor, current tile
	MOVQ R8, CX

kloop4:
	TESTQ CX, CX
	JLE   kdone4
	VMOVUPD.Z (AX), K2, Z8
	VMOVUPD.Z 64(AX), K3, Z9
	LEAQ      (DX)(R10*2), R12
	VBROADCASTSD (DX), Z10
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	VBROADCASTSD (DX)(R10*1), Z11
	VFMADD231PD  Z8, Z11, Z2
	VFMADD231PD  Z9, Z11, Z3
	VBROADCASTSD (R12), Z12
	VFMADD231PD  Z8, Z12, Z4
	VFMADD231PD  Z9, Z12, Z5
	VBROADCASTSD (R12)(R10*1), Z13
	VFMADD231PD  Z8, Z13, Z6
	VFMADD231PD  Z9, Z13, Z7
	ADDQ $8, DX
	ADDQ R11, AX
	DECQ CX
	JMP  kloop4

kdone4:
	LEAQ    (DI)(R11*2), BX
	VMOVUPD Z0, K2, (DI)
	VMOVUPD Z1, K3, 64(DI)
	VMOVUPD Z2, K2, (DI)(R11*1)
	VMOVUPD Z3, K3, 64(DI)(R11*1)
	VMOVUPD Z4, K2, (BX)
	VMOVUPD Z5, K3, 64(BX)
	VMOVUPD Z6, K2, (BX)(R11*1)
	VMOVUPD Z7, K3, 64(BX)(R11*1)

	ADDQ $128, DI
	ADDQ $128, R14
	SUBQ $16, R15
	JMP  tile4

done4:
	VZEROUPPER
	RET

// func fmaPanel1Asm(out, a, b *float64, k, n int64)
//
// Single-row remainder kernel; per element it runs the exact FMA sequence of
// one fmaPanel4Asm row, so 4-row and 1-row tilings produce identical bits.
TEXT ·fmaPanel1Asm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R9

	MOVQ R9, R11
	SHLQ $3, R11
	MOVQ R9, R15

tile1:
	TESTQ R15, R15
	JLE   done1

	MOVQ R15, R13
	CMPQ R13, $16
	JLE  lanes1
	MOVQ $16, R13

lanes1:
	MOVQ  $1, AX
	MOVQ  R13, CX
	SHLQ  CX, AX
	DECQ  AX
	MOVQ  AX, BX
	ANDQ  $0xFF, BX
	KMOVW BX, K2
	SHRQ  $8, AX
	KMOVW AX, K3

	VMOVUPD.Z (DI), K2, Z0
	VMOVUPD.Z 64(DI), K3, Z1

	MOVQ SI, DX
	MOVQ R14, AX
	MOVQ R8, CX

kloop1:
	TESTQ CX, CX
	JLE   kdone1
	VMOVUPD.Z (AX), K2, Z8
	VMOVUPD.Z 64(AX), K3, Z9
	VBROADCASTSD (DX), Z10
	VFMADD231PD  Z8, Z10, Z0
	VFMADD231PD  Z9, Z10, Z1
	ADDQ $8, DX
	ADDQ R11, AX
	DECQ CX
	JMP  kloop1

kdone1:
	VMOVUPD Z0, K2, (DI)
	VMOVUPD Z1, K3, 64(DI)

	ADDQ $128, DI
	ADDQ $128, R14
	SUBQ $16, R15
	JMP  tile1

done1:
	VZEROUPPER
	RET

DATA vclamplo<>+0(SB)/8, $-708.0
GLOBL vclamplo<>(SB), RODATA, $8
DATA vclamphi<>+0(SB)/8, $708.0
GLOBL vclamphi<>(SB), RODATA, $8
DATA vlog2e<>+0(SB)/8, $1.44269504088896340736
GLOBL vlog2e<>(SB), RODATA, $8
DATA vln2hi<>+0(SB)/8, $0.693147180369123816490
GLOBL vln2hi<>(SB), RODATA, $8
DATA vln2lo<>+0(SB)/8, $1.90821492927058770002e-10
GLOBL vln2lo<>(SB), RODATA, $8
DATA vneg40<>+0(SB)/8, $-40.0
GLOBL vneg40<>(SB), RODATA, $8
DATA vpos40<>+0(SB)/8, $40.0
GLOBL vpos40<>(SB), RODATA, $8
DATA vone<>+0(SB)/8, $1.0
GLOBL vone<>(SB), RODATA, $8
DATA vtwo<>+0(SB)/8, $2.0
GLOBL vtwo<>(SB), RODATA, $8
DATA vc11<>+0(SB)/8, $2.505210838544172e-08
GLOBL vc11<>(SB), RODATA, $8
DATA vc10<>+0(SB)/8, $2.755731922398589e-07
GLOBL vc10<>(SB), RODATA, $8
DATA vc9<>+0(SB)/8, $2.7557319223985893e-06
GLOBL vc9<>(SB), RODATA, $8
DATA vc8<>+0(SB)/8, $2.48015873015873e-05
GLOBL vc8<>(SB), RODATA, $8
DATA vc7<>+0(SB)/8, $0.0001984126984126984
GLOBL vc7<>(SB), RODATA, $8
DATA vc6<>+0(SB)/8, $0.001388888888888889
GLOBL vc6<>(SB), RODATA, $8
DATA vc5<>+0(SB)/8, $0.008333333333333333
GLOBL vc5<>(SB), RODATA, $8
DATA vc4<>+0(SB)/8, $0.041666666666666664
GLOBL vc4<>(SB), RODATA, $8
DATA vc3<>+0(SB)/8, $0.16666666666666666
GLOBL vc3<>(SB), RODATA, $8
DATA vc2<>+0(SB)/8, $0.5
GLOBL vc2<>(SB), RODATA, $8

// func vactAVX512(p *float64, n, mode int64, bias float64)
TEXT ·vactAVX512(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), R9
	MOVQ mode+16(FP), R10
	VBROADCASTSD bias+24(FP), Z10

	VBROADCASTSD vclamplo<>(SB), Z12
	VBROADCASTSD vclamphi<>(SB), Z13
	VBROADCASTSD vc11<>(SB), Z14
	VBROADCASTSD vc10<>(SB), Z15
	VBROADCASTSD vlog2e<>(SB), Z16
	VBROADCASTSD vln2hi<>(SB), Z17
	VBROADCASTSD vln2lo<>(SB), Z18
	VBROADCASTSD vneg40<>(SB), Z19
	VBROADCASTSD vpos40<>(SB), Z20
	VBROADCASTSD vone<>(SB), Z21
	VBROADCASTSD vtwo<>(SB), Z22
	VBROADCASTSD vc9<>(SB), Z23
	VBROADCASTSD vc8<>(SB), Z24
	VBROADCASTSD vc7<>(SB), Z25
	VBROADCASTSD vc6<>(SB), Z26
	VBROADCASTSD vc5<>(SB), Z27
	VBROADCASTSD vc4<>(SB), Z28
	VBROADCASTSD vc3<>(SB), Z29
	VBROADCASTSD vc2<>(SB), Z30

vloop:
	TESTQ R9, R9
	JLE   vdone

	MOVQ R9, R13
	CMPQ R13, $8
	JLE  vlanes
	MOVQ $8, R13

vlanes:
	MOVQ  $1, AX
	MOVQ  R13, CX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1

	VMOVUPD.Z (DI), K1, Z0

	CMPQ R10, $1
	JEQ  presig
	CMPQ R10, $2
	JEQ  pretanh

	// mode 0: exp(x - bias)
	VSUBPD Z10, Z0, Z0
	JMP    expblk

presig:
	// sigmoid(x) = 1/(1+exp(-x)); clamp |x| to 40 so exp stays finite.
	VMINPD Z0, Z20, Z0
	VMAXPD Z0, Z19, Z0
	VPXORQ Z5, Z5, Z5
	VSUBPD Z0, Z5, Z0
	JMP    expblk

pretanh:
	// tanh(x) = 1 - 2/(exp(2x)+1); clamp 2x to 40 so extremes saturate to +-1.
	VADDPD Z0, Z0, Z0
	VMINPD Z0, Z20, Z0
	VMAXPD Z0, Z19, Z0

expblk:
	VMINPD       Z0, Z13, Z0
	VMAXPD       Z0, Z12, Z0
	VMULPD       Z16, Z0, Z1
	VRNDSCALEPD  $0, Z1, Z1
	VMOVAPD      Z0, Z2
	VFNMADD231PD Z17, Z1, Z2
	VFNMADD231PD Z18, Z1, Z2
	VMOVAPD      Z14, Z3
	VFMADD213PD  Z15, Z2, Z3
	VFMADD213PD  Z23, Z2, Z3
	VFMADD213PD  Z24, Z2, Z3
	VFMADD213PD  Z25, Z2, Z3
	VFMADD213PD  Z26, Z2, Z3
	VFMADD213PD  Z27, Z2, Z3
	VFMADD213PD  Z28, Z2, Z3
	VFMADD213PD  Z29, Z2, Z3
	VFMADD213PD  Z30, Z2, Z3
	VFMADD213PD  Z21, Z2, Z3
	VFMADD213PD  Z21, Z2, Z3
	VSCALEFPD    Z1, Z3, Z4

	CMPQ R10, $1
	JEQ  postsig
	CMPQ R10, $2
	JEQ  posttanh
	JMP  vstore

postsig:
	VADDPD Z21, Z4, Z4
	VDIVPD Z4, Z21, Z4
	JMP    vstore

posttanh:
	VADDPD Z21, Z4, Z5
	VDIVPD Z5, Z22, Z5
	VSUBPD Z5, Z21, Z4

vstore:
	VMOVUPD Z4, K1, (DI)
	ADDQ    $64, DI
	SUBQ    $8, R9
	JMP     vloop

vdone:
	VZEROUPPER
	RET
