//go:build amd64

// AVX-512F kernels for the single-precision inference tier (DESIGN.md §13).
//
// fmaPanel4F32Asm / fmaPanel1F32Asm are the float32 ports of the f64 panel
// kernels: out += a @ b for four (resp. one) consecutive rows of a row-major
// activation block against one shared weight panel b, walked in 32-column
// zmm tile pairs (16 lanes per register — twice the f64 width, half the
// traffic). Per output element both kernels execute the identical
// ascending-p FMA sequence, so a row's result is a pure function of its own
// input row and batch composition cannot change any row's bits.
//
// vactF32AVX512 applies an elementwise activation in place: mode 0 is
// exp(x-bias), 1 sigmoid, 2 tanh. Same Cody-Waite + Taylor structure as the
// f64 kernel with single-precision constants (ln2 split per fdlibm's float
// variant, clamp at ±87 against float32 exp overflow at ~88.7); relative
// error is ~1e-7, inside the f32 tier's parity budget against the
// math.Exp-and-narrow scalar reference. As in the f64 kernel, every clamp
// takes x as the second source operand so a NaN input comes out NaN.

#include "textflag.h"

// func fmaPanel4F32Asm(out, a, b *float32, k, n int64)
TEXT ·fmaPanel4F32Asm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R9

	MOVQ R8, R10
	SHLQ $2, R10  // a row stride in bytes (k*4)
	MOVQ R9, R11
	SHLQ $2, R11  // b/out row stride in bytes (n*4)
	MOVQ R9, R15  // columns remaining

tile4:
	TESTQ R15, R15
	JLE   done4

	// Column masks for this 32-wide tile: K2 covers lanes 0-15, K3 16-31.
	MOVQ R15, R13
	CMPQ R13, $32
	JLE  lanes4
	MOVQ $32, R13

lanes4:
	MOVQ  $1, AX
	MOVQ  R13, CX
	SHLQ  CX, AX
	DECQ  AX
	MOVQ  AX, BX
	ANDQ  $0xFFFF, BX
	KMOVW BX, K2
	SHRQ  $16, AX
	KMOVW AX, K3

	// Load the 4x32 accumulator tile from out.
	LEAQ      (DI)(R11*2), BX
	VMOVUPS.Z (DI), K2, Z0
	VMOVUPS.Z 64(DI), K3, Z1
	VMOVUPS.Z (DI)(R11*1), K2, Z2
	VMOVUPS.Z 64(DI)(R11*1), K3, Z3
	VMOVUPS.Z (BX), K2, Z4
	VMOVUPS.Z 64(BX), K3, Z5
	VMOVUPS.Z (BX)(R11*1), K2, Z6
	VMOVUPS.Z 64(BX)(R11*1), K3, Z7

	MOVQ SI, DX   // a cursor, row 0
	MOVQ R14, AX  // b cursor, current tile
	MOVQ R8, CX

kloop4:
	TESTQ CX, CX
	JLE   kdone4
	VMOVUPS.Z (AX), K2, Z8
	VMOVUPS.Z 64(AX), K3, Z9
	LEAQ      (DX)(R10*2), R12
	VBROADCASTSS (DX), Z10
	VFMADD231PS  Z8, Z10, Z0
	VFMADD231PS  Z9, Z10, Z1
	VBROADCASTSS (DX)(R10*1), Z11
	VFMADD231PS  Z8, Z11, Z2
	VFMADD231PS  Z9, Z11, Z3
	VBROADCASTSS (R12), Z12
	VFMADD231PS  Z8, Z12, Z4
	VFMADD231PS  Z9, Z12, Z5
	VBROADCASTSS (R12)(R10*1), Z13
	VFMADD231PS  Z8, Z13, Z6
	VFMADD231PS  Z9, Z13, Z7
	ADDQ $4, DX
	ADDQ R11, AX
	DECQ CX
	JMP  kloop4

kdone4:
	LEAQ    (DI)(R11*2), BX
	VMOVUPS Z0, K2, (DI)
	VMOVUPS Z1, K3, 64(DI)
	VMOVUPS Z2, K2, (DI)(R11*1)
	VMOVUPS Z3, K3, 64(DI)(R11*1)
	VMOVUPS Z4, K2, (BX)
	VMOVUPS Z5, K3, 64(BX)
	VMOVUPS Z6, K2, (BX)(R11*1)
	VMOVUPS Z7, K3, 64(BX)(R11*1)

	ADDQ $128, DI
	ADDQ $128, R14
	SUBQ $32, R15
	JMP  tile4

done4:
	VZEROUPPER
	RET

// func fmaPanel1F32Asm(out, a, b *float32, k, n int64)
//
// Single-row remainder kernel; per element it runs the exact FMA sequence of
// one fmaPanel4F32Asm row, so 4-row and 1-row tilings produce identical bits.
TEXT ·fmaPanel1F32Asm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R9

	MOVQ R9, R11
	SHLQ $2, R11
	MOVQ R9, R15

tile1:
	TESTQ R15, R15
	JLE   done1

	MOVQ R15, R13
	CMPQ R13, $32
	JLE  lanes1
	MOVQ $32, R13

lanes1:
	MOVQ  $1, AX
	MOVQ  R13, CX
	SHLQ  CX, AX
	DECQ  AX
	MOVQ  AX, BX
	ANDQ  $0xFFFF, BX
	KMOVW BX, K2
	SHRQ  $16, AX
	KMOVW AX, K3

	VMOVUPS.Z (DI), K2, Z0
	VMOVUPS.Z 64(DI), K3, Z1

	MOVQ SI, DX
	MOVQ R14, AX
	MOVQ R8, CX

kloop1:
	TESTQ CX, CX
	JLE   kdone1
	VMOVUPS.Z (AX), K2, Z8
	VMOVUPS.Z 64(AX), K3, Z9
	VBROADCASTSS (DX), Z10
	VFMADD231PS  Z8, Z10, Z0
	VFMADD231PS  Z9, Z10, Z1
	ADDQ $4, DX
	ADDQ R11, AX
	DECQ CX
	JMP  kloop1

kdone1:
	VMOVUPS Z0, K2, (DI)
	VMOVUPS Z1, K3, 64(DI)

	ADDQ $128, DI
	ADDQ $128, R14
	SUBQ $32, R15
	JMP  tile1

done1:
	VZEROUPPER
	RET

DATA fclamplo<>+0(SB)/4, $-87.0
GLOBL fclamplo<>(SB), RODATA, $4
DATA fclamphi<>+0(SB)/4, $87.0
GLOBL fclamphi<>(SB), RODATA, $4
DATA flog2e<>+0(SB)/4, $1.44269504088896340736
GLOBL flog2e<>(SB), RODATA, $4
DATA fln2hi<>+0(SB)/4, $0.693359375
GLOBL fln2hi<>(SB), RODATA, $4
DATA fln2lo<>+0(SB)/4, $-2.12194440e-4
GLOBL fln2lo<>(SB), RODATA, $4
DATA fneg40<>+0(SB)/4, $-40.0
GLOBL fneg40<>(SB), RODATA, $4
DATA fpos40<>+0(SB)/4, $40.0
GLOBL fpos40<>(SB), RODATA, $4
DATA fone<>+0(SB)/4, $1.0
GLOBL fone<>(SB), RODATA, $4
DATA ftwo<>+0(SB)/4, $2.0
GLOBL ftwo<>(SB), RODATA, $4
DATA fc8<>+0(SB)/4, $2.48015873015873e-05
GLOBL fc8<>(SB), RODATA, $4
DATA fc7<>+0(SB)/4, $0.0001984126984126984
GLOBL fc7<>(SB), RODATA, $4
DATA fc6<>+0(SB)/4, $0.001388888888888889
GLOBL fc6<>(SB), RODATA, $4
DATA fc5<>+0(SB)/4, $0.008333333333333333
GLOBL fc5<>(SB), RODATA, $4
DATA fc4<>+0(SB)/4, $0.041666666666666664
GLOBL fc4<>(SB), RODATA, $4
DATA fc3<>+0(SB)/4, $0.16666666666666666
GLOBL fc3<>(SB), RODATA, $4
DATA fc2<>+0(SB)/4, $0.5
GLOBL fc2<>(SB), RODATA, $4

// func vactF32AVX512(p *float32, n, mode int64, bias float32)
TEXT ·vactF32AVX512(SB), NOSPLIT, $0-28
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), R9
	MOVQ mode+16(FP), R10
	VBROADCASTSS bias+24(FP), Z10

	VBROADCASTSS fclamplo<>(SB), Z12
	VBROADCASTSS fclamphi<>(SB), Z13
	VBROADCASTSS fc8<>(SB), Z14
	VBROADCASTSS fc7<>(SB), Z15
	VBROADCASTSS flog2e<>(SB), Z16
	VBROADCASTSS fln2hi<>(SB), Z17
	VBROADCASTSS fln2lo<>(SB), Z18
	VBROADCASTSS fneg40<>(SB), Z19
	VBROADCASTSS fpos40<>(SB), Z20
	VBROADCASTSS fone<>(SB), Z21
	VBROADCASTSS ftwo<>(SB), Z22
	VBROADCASTSS fc6<>(SB), Z26
	VBROADCASTSS fc5<>(SB), Z27
	VBROADCASTSS fc4<>(SB), Z28
	VBROADCASTSS fc3<>(SB), Z29
	VBROADCASTSS fc2<>(SB), Z30

vloop:
	TESTQ R9, R9
	JLE   vdone

	MOVQ R9, R13
	CMPQ R13, $16
	JLE  vlanes
	MOVQ $16, R13

vlanes:
	MOVQ  $1, AX
	MOVQ  R13, CX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1

	VMOVUPS.Z (DI), K1, Z0

	CMPQ R10, $1
	JEQ  presig
	CMPQ R10, $2
	JEQ  pretanh

	// mode 0: exp(x - bias)
	VSUBPS Z10, Z0, Z0
	JMP    expblk

presig:
	// sigmoid(x) = 1/(1+exp(-x)); clamp |x| to 40 so exp stays finite.
	VMINPS Z0, Z20, Z0
	VMAXPS Z0, Z19, Z0
	VPXORQ Z5, Z5, Z5
	VSUBPS Z0, Z5, Z0
	JMP    expblk

pretanh:
	// tanh(x) = 1 - 2/(exp(2x)+1); clamp 2x to 40 so extremes saturate to +-1.
	VADDPS Z0, Z0, Z0
	VMINPS Z0, Z20, Z0
	VMAXPS Z0, Z19, Z0

expblk:
	// Cody-Waite: n = round(x*log2e), r = x - n*ln2hi - n*ln2lo, then a
	// degree-8 Taylor in r and a VSCALEFPS 2^n rescale. Degree 8 puts the
	// truncation term (r^9/9! at |r| <= ln2/2) three orders below f32 eps.
	VMINPS       Z0, Z13, Z0
	VMAXPS       Z0, Z12, Z0
	VMULPS       Z16, Z0, Z1
	VRNDSCALEPS  $0, Z1, Z1
	VMOVAPS      Z0, Z2
	VFNMADD231PS Z17, Z1, Z2
	VFNMADD231PS Z18, Z1, Z2
	VMOVAPS      Z14, Z3
	VFMADD213PS  Z15, Z2, Z3
	VFMADD213PS  Z26, Z2, Z3
	VFMADD213PS  Z27, Z2, Z3
	VFMADD213PS  Z28, Z2, Z3
	VFMADD213PS  Z29, Z2, Z3
	VFMADD213PS  Z30, Z2, Z3
	VFMADD213PS  Z21, Z2, Z3
	VFMADD213PS  Z21, Z2, Z3
	VSCALEFPS    Z1, Z3, Z4

	CMPQ R10, $1
	JEQ  postsig
	CMPQ R10, $2
	JEQ  posttanh
	JMP  vstore

postsig:
	VADDPS Z21, Z4, Z4
	VDIVPS Z4, Z21, Z4
	JMP    vstore

posttanh:
	VADDPS Z21, Z4, Z5
	VDIVPS Z5, Z22, Z5
	VSUBPS Z5, Z21, Z4

vstore:
	VMOVUPS Z4, K1, (DI)
	ADDQ    $64, DI
	SUBQ    $16, R9
	JMP     vloop

vdone:
	VZEROUPPER
	RET
