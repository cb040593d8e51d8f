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
// As in the f64 file, fmaPanel4F32Asm takes a row count of 4 or 2 (a two-row
// remainder aliases rows 2,3 onto rows 0,1), fmaPanel1F32Asm walks b in
// 128-column tiles of eight accumulators while a full one fits, then in
// masked 64-column tiles of four, and fmaPanel9F32Asm takes the products whose
// row count is a whole number of nine-row history windows.
//
// vactF32AVX512 applies an elementwise activation in place: mode 0 is
// exp(x-bias), 1 sigmoid, 2 tanh, 3 ReLU. Same Cody-Waite + Taylor structure as the
// f64 kernel with single-precision constants (ln2 split per fdlibm's float
// variant, clamp at ±87 against float32 exp overflow at ~88.7); relative
// error is ~1e-7, inside the f32 tier's parity budget against the
// math.Exp-and-narrow scalar reference. As in the f64 kernel, every clamp
// takes x as the second source operand so a NaN input comes out NaN.
//
// vsoftmaxRowsF32AVX512 and vaddLayerNormF32AVX512 are the f32 row kernels,
// structured and NaN-transparent exactly like their f64 twins.

#include "textflag.h"

// func fmaPanel4F32Asm(out, a, b *float32, k, n, rows int64)
TEXT ·fmaPanel4F32Asm(SB), NOSPLIT, $0-48
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

	// Byte offsets of the second row pair in a (R9) and out (R13): two row
	// strides for rows = 4, zero for rows = 2 so rows 2,3 alias rows 0,1.
	XORQ R9, R9
	XORQ R13, R13
	CMPQ rows+40(FP), $4
	JNE  tile4
	LEAQ (R10)(R10*1), R9
	LEAQ (R11)(R11*1), R13

tile4:
	TESTQ R15, R15
	JLE   done4

	// Column masks for this 32-wide tile: K2 covers lanes 0-15, K3 16-31.
	MOVQ R15, CX
	CMPQ CX, $32
	JLE  lanes4
	MOVQ $32, CX

lanes4:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	MOVQ  AX, BX
	ANDQ  $0xFFFF, BX
	KMOVW BX, K2
	SHRQ  $16, AX
	KMOVW AX, K3

	// Load the 4x32 accumulator tile from out.
	LEAQ      (DI)(R13*1), BX
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
	LEAQ      (DX)(R9*1), R12
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
	LEAQ    (DI)(R13*1), BX
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
// Full tiles are 128 columns wide: eight accumulators, unmasked, b read as the
// FMA's memory operand. The ragged rest runs in masked 64-column tiles of
// four. Either way an element is its own ascending-p chain.
TEXT ·fmaPanel1F32Asm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R9

	MOVQ R9, R11
	SHLQ $2, R11
	MOVQ R9, R15

tile8:
	CMPQ R15, $128
	JLT  tile1

	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	VMOVUPS 256(DI), Z4
	VMOVUPS 320(DI), Z5
	VMOVUPS 384(DI), Z6
	VMOVUPS 448(DI), Z7

	MOVQ SI, DX
	MOVQ R14, AX
	MOVQ R8, CX

kloop8:
	TESTQ CX, CX
	JLE   kdone8
	VBROADCASTSS (DX), Z12
	VFMADD231PS  (AX), Z12, Z0
	VFMADD231PS  64(AX), Z12, Z1
	VFMADD231PS  128(AX), Z12, Z2
	VFMADD231PS  192(AX), Z12, Z3
	VFMADD231PS  256(AX), Z12, Z4
	VFMADD231PS  320(AX), Z12, Z5
	VFMADD231PS  384(AX), Z12, Z6
	VFMADD231PS  448(AX), Z12, Z7
	ADDQ $4, DX
	ADDQ R11, AX
	DECQ CX
	JMP  kloop8

kdone8:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)

	ADDQ $512, DI
	ADDQ $512, R14
	SUBQ $128, R15
	JMP  tile8

tile1:
	TESTQ R15, R15
	JLE   done1

	// Column masks K2..K5, sixteen lanes each, for this 64-wide tile.
	MOVQ $-1, AX
	CMPQ R15, $64
	JGE  lanes1
	MOVQ $1, AX
	MOVQ R15, CX
	SHLQ CX, AX
	DECQ AX

lanes1:
	KMOVW AX, K2
	SHRQ  $16, AX
	KMOVW AX, K3
	SHRQ  $16, AX
	KMOVW AX, K4
	SHRQ  $16, AX
	KMOVW AX, K5

	VMOVUPS.Z (DI), K2, Z0
	VMOVUPS.Z 64(DI), K3, Z1
	VMOVUPS.Z 128(DI), K4, Z2
	VMOVUPS.Z 192(DI), K5, Z3

	MOVQ SI, DX
	MOVQ R14, AX
	MOVQ R8, CX

kloop1:
	TESTQ CX, CX
	JLE   kdone1
	VMOVUPS.Z (AX), K2, Z8
	VMOVUPS.Z 64(AX), K3, Z9
	VMOVUPS.Z 128(AX), K4, Z10
	VMOVUPS.Z 192(AX), K5, Z11
	VBROADCASTSS (DX), Z12
	VFMADD231PS  Z8, Z12, Z0
	VFMADD231PS  Z9, Z12, Z1
	VFMADD231PS  Z10, Z12, Z2
	VFMADD231PS  Z11, Z12, Z3
	ADDQ $4, DX
	ADDQ R11, AX
	DECQ CX
	JMP  kloop1

kdone1:
	VMOVUPS Z0, K2, (DI)
	VMOVUPS Z1, K3, 64(DI)
	VMOVUPS Z2, K4, 128(DI)
	VMOVUPS Z3, K5, 192(DI)

	ADDQ $256, DI
	ADDQ $256, R14
	SUBQ $64, R15
	JMP  tile1

done1:
	VZEROUPPER
	RET

// func fmaPanel9F32Asm(out, a, b *float32, k, n int64)
//
// Window-row kernel: out += a @ b for nine consecutive rows (tensor.WindowRows,
// one history window) against the shared panel b. Columns go in 32-wide tiles
// of 9 x 2 zmm (eighteen accumulators; the second register masked when fewer
// than 32 columns are left) while more than one register of them remains, and
// a remainder of 1..16 columns in one 9 x 1 tile, so no all-masked register
// ever issues an FMA. Per element it is the ascending-p chain of
// fmaPanel4F32Asm, with the operands in that kernel's order (accumulator, a,
// b: which NaN of two an FMA keeps goes by position), so the tilings agree bit
// for bit.
TEXT ·fmaPanel9F32Asm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R15  // columns remaining

	MOVQ R8, R10
	SHLQ $2, R10           // a row stride in bytes (k*4)
	MOVQ R15, R11
	SHLQ $2, R11           // b/out row stride in bytes (n*4)
	LEAQ (R10)(R10*2), R9  // three a rows in bytes

tile92:
	CMPQ R15, $16
	JLE  tile91

	// K3 masks the second register: min(remaining-16, 16) lanes.
	LEAQ  -16(R15), CX
	CMPQ  CX, $16
	JLE   lanes92
	MOVQ  $16, CX

lanes92:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K3

	// Rows 0-2 sit at DI, rows 3-5 at DX, rows 6-8 at BX.
	LEAQ (R11)(R11*2), BX
	LEAQ (DI)(BX*1), DX
	LEAQ (DX)(BX*1), BX
	VMOVUPS   (DI), Z0
	VMOVUPS.Z 64(DI), K3, Z1
	VMOVUPS   (DI)(R11*1), Z2
	VMOVUPS.Z 64(DI)(R11*1), K3, Z3
	VMOVUPS   (DI)(R11*2), Z4
	VMOVUPS.Z 64(DI)(R11*2), K3, Z5
	VMOVUPS   (DX), Z6
	VMOVUPS.Z 64(DX), K3, Z7
	VMOVUPS   (DX)(R11*1), Z8
	VMOVUPS.Z 64(DX)(R11*1), K3, Z9
	VMOVUPS   (DX)(R11*2), Z10
	VMOVUPS.Z 64(DX)(R11*2), K3, Z11
	VMOVUPS   (BX), Z12
	VMOVUPS.Z 64(BX), K3, Z13
	VMOVUPS   (BX)(R11*1), Z14
	VMOVUPS.Z 64(BX)(R11*1), K3, Z15
	VMOVUPS   (BX)(R11*2), Z16
	VMOVUPS.Z 64(BX)(R11*2), K3, Z17

	MOVQ SI, DX  // a cursors: rows 0-2, 3-5, 6-8
	LEAQ (SI)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ R14, AX  // b cursor, current tile
	MOVQ R8, CX
	TESTQ CX, CX
	JLE   kdone92

kloop92:
	VMOVUPS   (AX), Z18
	VMOVUPS.Z 64(AX), K3, Z19
	VBROADCASTSS (DX), Z20
	VFMADD231PS  Z18, Z20, Z0
	VFMADD231PS  Z19, Z20, Z1
	VBROADCASTSS (DX)(R10*1), Z21
	VFMADD231PS  Z18, Z21, Z2
	VFMADD231PS  Z19, Z21, Z3
	VBROADCASTSS (DX)(R10*2), Z22
	VFMADD231PS  Z18, Z22, Z4
	VFMADD231PS  Z19, Z22, Z5
	VBROADCASTSS (R12), Z23
	VFMADD231PS  Z18, Z23, Z6
	VFMADD231PS  Z19, Z23, Z7
	VBROADCASTSS (R12)(R10*1), Z24
	VFMADD231PS  Z18, Z24, Z8
	VFMADD231PS  Z19, Z24, Z9
	VBROADCASTSS (R12)(R10*2), Z25
	VFMADD231PS  Z18, Z25, Z10
	VFMADD231PS  Z19, Z25, Z11
	VBROADCASTSS (R13), Z26
	VFMADD231PS  Z18, Z26, Z12
	VFMADD231PS  Z19, Z26, Z13
	VBROADCASTSS (R13)(R10*1), Z27
	VFMADD231PS  Z18, Z27, Z14
	VFMADD231PS  Z19, Z27, Z15
	VBROADCASTSS (R13)(R10*2), Z28
	VFMADD231PS  Z18, Z28, Z16
	VFMADD231PS  Z19, Z28, Z17
	ADDQ $4, DX
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ R11, AX
	DECQ CX
	JNZ  kloop92

kdone92:
	LEAQ (R11)(R11*2), BX
	LEAQ (DI)(BX*1), DX
	LEAQ (DX)(BX*1), BX
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, K3, 64(DI)
	VMOVUPS Z2, (DI)(R11*1)
	VMOVUPS Z3, K3, 64(DI)(R11*1)
	VMOVUPS Z4, (DI)(R11*2)
	VMOVUPS Z5, K3, 64(DI)(R11*2)
	VMOVUPS Z6, (DX)
	VMOVUPS Z7, K3, 64(DX)
	VMOVUPS Z8, (DX)(R11*1)
	VMOVUPS Z9, K3, 64(DX)(R11*1)
	VMOVUPS Z10, (DX)(R11*2)
	VMOVUPS Z11, K3, 64(DX)(R11*2)
	VMOVUPS Z12, (BX)
	VMOVUPS Z13, K3, 64(BX)
	VMOVUPS Z14, (BX)(R11*1)
	VMOVUPS Z15, K3, 64(BX)(R11*1)
	VMOVUPS Z16, (BX)(R11*2)
	VMOVUPS Z17, K3, 64(BX)(R11*2)

	ADDQ $128, DI
	ADDQ $128, R14
	SUBQ $32, R15
	JMP  tile92

tile91:
	TESTQ R15, R15
	JLE   done9

	MOVQ  R15, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K2

	LEAQ (R11)(R11*2), BX
	LEAQ (DI)(BX*1), DX
	LEAQ (DX)(BX*1), BX
	VMOVUPS.Z (DI), K2, Z0
	VMOVUPS.Z (DI)(R11*1), K2, Z1
	VMOVUPS.Z (DI)(R11*2), K2, Z2
	VMOVUPS.Z (DX), K2, Z3
	VMOVUPS.Z (DX)(R11*1), K2, Z4
	VMOVUPS.Z (DX)(R11*2), K2, Z5
	VMOVUPS.Z (BX), K2, Z6
	VMOVUPS.Z (BX)(R11*1), K2, Z7
	VMOVUPS.Z (BX)(R11*2), K2, Z8

	MOVQ SI, DX
	LEAQ (SI)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ R14, AX
	MOVQ R8, CX
	TESTQ CX, CX
	JLE   kdone91

kloop91:
	VMOVUPS.Z (AX), K2, Z9
	VBROADCASTSS (DX), Z10
	VFMADD231PS  Z9, Z10, Z0
	VBROADCASTSS (DX)(R10*1), Z11
	VFMADD231PS  Z9, Z11, Z1
	VBROADCASTSS (DX)(R10*2), Z12
	VFMADD231PS  Z9, Z12, Z2
	VBROADCASTSS (R12), Z13
	VFMADD231PS  Z9, Z13, Z3
	VBROADCASTSS (R12)(R10*1), Z14
	VFMADD231PS  Z9, Z14, Z4
	VBROADCASTSS (R12)(R10*2), Z15
	VFMADD231PS  Z9, Z15, Z5
	VBROADCASTSS (R13), Z16
	VFMADD231PS  Z9, Z16, Z6
	VBROADCASTSS (R13)(R10*1), Z17
	VFMADD231PS  Z9, Z17, Z7
	VBROADCASTSS (R13)(R10*2), Z18
	VFMADD231PS  Z9, Z18, Z8
	ADDQ $4, DX
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ R11, AX
	DECQ CX
	JNZ  kloop91

kdone91:
	LEAQ (R11)(R11*2), BX
	LEAQ (DI)(BX*1), DX
	LEAQ (DX)(BX*1), BX
	VMOVUPS Z0, K2, (DI)
	VMOVUPS Z1, K2, (DI)(R11*1)
	VMOVUPS Z2, K2, (DI)(R11*2)
	VMOVUPS Z3, K2, (DX)
	VMOVUPS Z4, K2, (DX)(R11*1)
	VMOVUPS Z5, K2, (DX)(R11*2)
	VMOVUPS Z6, K2, (BX)
	VMOVUPS Z7, K2, (BX)(R11*1)
	VMOVUPS Z8, K2, (BX)(R11*2)

done9:
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
DATA fneginf<>+0(SB)/4, $0xff800000
GLOBL fneginf<>(SB), RODATA, $4

// EXPCONSTSF32 loads the exp block's constants (and the sigmoid/tanh clamps
// and 1, 2) into Z12..Z30.
#define EXPCONSTSF32 \
	VBROADCASTSS fclamplo<>(SB), Z12; \
	VBROADCASTSS fclamphi<>(SB), Z13; \
	VBROADCASTSS fc8<>(SB), Z14; \
	VBROADCASTSS fc7<>(SB), Z15; \
	VBROADCASTSS flog2e<>(SB), Z16; \
	VBROADCASTSS fln2hi<>(SB), Z17; \
	VBROADCASTSS fln2lo<>(SB), Z18; \
	VBROADCASTSS fneg40<>(SB), Z19; \
	VBROADCASTSS fpos40<>(SB), Z20; \
	VBROADCASTSS fone<>(SB), Z21; \
	VBROADCASTSS ftwo<>(SB), Z22; \
	VBROADCASTSS fc6<>(SB), Z26; \
	VBROADCASTSS fc5<>(SB), Z27; \
	VBROADCASTSS fc4<>(SB), Z28; \
	VBROADCASTSS fc3<>(SB), Z29; \
	VBROADCASTSS fc2<>(SB), Z30

// EXPZ0F32 computes Z4 = exp(Z0), clobbering Z0..Z3. Cody-Waite:
// n = round(x*log2e), r = x - n*ln2hi - n*ln2lo, then a degree-8 Taylor in r
// and a VSCALEFPS 2^n rescale. Degree 8 puts the truncation term (r^9/9! at
// |r| <= ln2/2) three orders below f32 eps.
#define EXPZ0F32 \
	VMINPS       Z0, Z13, Z0; \
	VMAXPS       Z0, Z12, Z0; \
	VMULPS       Z16, Z0, Z1; \
	VRNDSCALEPS  $0, Z1, Z1; \
	VMOVAPS      Z0, Z2; \
	VFNMADD231PS Z17, Z1, Z2; \
	VFNMADD231PS Z18, Z1, Z2; \
	VMOVAPS      Z14, Z3; \
	VFMADD213PS  Z15, Z2, Z3; \
	VFMADD213PS  Z26, Z2, Z3; \
	VFMADD213PS  Z27, Z2, Z3; \
	VFMADD213PS  Z28, Z2, Z3; \
	VFMADD213PS  Z29, Z2, Z3; \
	VFMADD213PS  Z30, Z2, Z3; \
	VFMADD213PS  Z21, Z2, Z3; \
	VFMADD213PS  Z21, Z2, Z3; \
	VSCALEFPS    Z1, Z3, Z4

// HREDUCEF32 folds the sixteen lanes of one zmm (named as Z, Y, X) into lane
// 0 of X with OP (VADDPS or VMAXPS), using scratch register TY/TX.
#define HREDUCEF32(OP, Z, Y, X, TY, TX) \
	VEXTRACTF64X4 $1, Z, TY; \
	OP            TY, Y, Y; \
	VEXTRACTF128  $1, Y, TX; \
	OP            TX, X, X; \
	VPERMILPS     $0x4E, X, TX; \
	OP            TX, X, X; \
	VPERMILPS     $0xB1, X, TX; \
	OP            TX, X, X

// TAILMASKF32 sets K1 to the lanes of a row's last 16-wide chunk (1..16 of
// them) and CHUNKS to the number of full chunks before it; clobbers AX, CX.
#define TAILMASKF32(COLS, CHUNKS) \
	LEAQ  -1(COLS), CHUNKS; \
	SHRQ  $4, CHUNKS; \
	MOVQ  CHUNKS, AX; \
	SHLQ  $4, AX; \
	MOVQ  COLS, CX; \
	SUBQ  AX, CX; \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	KMOVW AX, K1


// func vactF32AVX512(p *float32, n, mode int64, bias float32)
TEXT ·vactF32AVX512(SB), NOSPLIT, $0-28
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), R9
	MOVQ mode+16(FP), R10
	VBROADCASTSS bias+24(FP), Z10
	EXPCONSTSF32

vloop:
	TESTQ R9, R9
	JLE   vdone

	MOVQ R9, CX
	CMPQ CX, $16
	JLE  vlanes
	MOVQ $16, CX

vlanes:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1

	VMOVUPS.Z (DI), K1, Z0

	CMPQ R10, $1
	JEQ  presig
	CMPQ R10, $2
	JEQ  pretanh
	CMPQ R10, $3
	JEQ  relu

	// mode 0: exp(x - bias)
	VSUBPS Z10, Z0, Z0
	JMP    expblk

relu:
	VPXORQ Z5, Z5, Z5
	VMAXPS Z0, Z5, Z4
	JMP    vstore

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
	EXPZ0F32

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

// func vsoftmaxRowsF32AVX512(p, tmp *float32, rows, cols int64)
//
// In-place softmax over each row of a dense [rows x cols] block (rows, cols
// >= 1) in two sweeps: exp(x - max) of every row goes to tmp (same shape),
// then every row of tmp comes back scaled by 1/sum. The round trip through
// tmp is for ragged widths: a masked row store reserves its full 64 bytes, so
// a load of the next row behind it in the same buffer would wait for it to
// retire and serialise the rows (6x slower at 9 columns); this way no load
// trails a store to its own buffer by less than a whole sweep.
TEXT ·vsoftmaxRowsF32AVX512(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ tmp+8(FP), R14
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	TAILMASKF32(R9, R10)
	MOVQ R9, R11
	SHLQ $2, R11  // row stride in bytes
	SUBQ DI, R14  // tmp - p: (DX)(R14*1) is the tmp twin of (DX)
	VBROADCASTSS fneginf<>(SB), Z11
	EXPCONSTSF32

	MOVQ DI, SI
	MOVQ R8, R12

smaxrow:
	VMOVAPS Z11, Z5
	MOVQ    SI, DX
	MOVQ    R10, CX

smaxloop:
	TESTQ   CX, CX
	JLE     smaxtail
	VMOVUPS (DX), Z0
	VMAXPS  Z5, Z0, Z5
	ADDQ    $64, DX
	DECQ    CX
	JMP     smaxloop

smaxtail:
	VMOVAPS Z11, Z0
	VMOVUPS (DX), K1, Z0
	VMAXPS  Z5, Z0, Z5
	HREDUCEF32(VMAXPS, Z5, Y5, X5, Y0, X0)
	VBROADCASTSS X5, Z5
	MOVQ    SI, DX
	MOVQ    R10, CX

sexploop:
	TESTQ   CX, CX
	JLE     sexptail
	VMOVUPS (DX), Z0
	VSUBPS  Z5, Z0, Z0
	EXPZ0F32
	VMOVUPS Z4, (DX)(R14*1)
	ADDQ    $64, DX
	DECQ    CX
	JMP     sexploop

sexptail:
	VMOVUPS.Z (DX), K1, Z0
	VSUBPS    Z5, Z0, Z0
	EXPZ0F32
	VMOVUPS   Z4, K1, (DX)(R14*1)
	ADDQ      R11, SI
	DECQ      R12
	JNZ       smaxrow

	MOVQ DI, SI
	MOVQ R8, R12

ssumrow:
	VPXORQ Z6, Z6, Z6
	MOVQ   SI, DX
	MOVQ   R10, CX

ssumloop:
	TESTQ  CX, CX
	JLE    ssumtail
	VADDPS (DX)(R14*1), Z6, Z6
	ADDQ   $64, DX
	DECQ   CX
	JMP    ssumloop

ssumtail:
	VMOVUPS.Z (DX)(R14*1), K1, Z0
	VADDPS    Z0, Z6, Z6
	HREDUCEF32(VADDPS, Z6, Y6, X6, Y0, X0)
	VDIVSS  X6, X21, X7
	VBROADCASTSS X7, Z7
	MOVQ    SI, DX
	MOVQ    R10, CX

sscaleloop:
	TESTQ   CX, CX
	JLE     sscaletail
	VMULPS  (DX)(R14*1), Z7, Z0
	VMOVUPS Z0, (DX)
	ADDQ    $64, DX
	DECQ    CX
	JMP     sscaleloop

sscaletail:
	VMOVUPS.Z (DX)(R14*1), K1, Z0
	VMULPS    Z7, Z0, Z0
	VMOVUPS   Z0, K1, (DX)
	ADDQ      R11, SI
	DECQ      R12
	JNZ       ssumrow

	VZEROUPPER
	RET

// func vaddLayerNormF32AVX512(out, x, y, gain, bias *float32, rows, cols int64, eps float32)
//
// out = LayerNorm(x + y) row by row (y may be nil: plain LayerNorm), rows and
// cols >= 1. Each row is summed into out as x + y, reduced to its mean and
// variance in vector lanes, and rewritten as (v-mean)*inv*gain + bias — the
// scalar kernel's operation order, so only the reduction order differs.
TEXT ·vaddLayerNormF32AVX512(SB), NOSPLIT, $0-60
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ gain+24(FP), R14
	MOVQ bias+32(FP), R15
	MOVQ rows+40(FP), R8
	MOVQ cols+48(FP), R9
	TAILMASKF32(R9, R10)
	MOVQ R9, R11
	SHLQ $2, R11           // row stride in bytes
	SHLQ $6, R10           // byte offset of the tail chunk
	VCVTSI2SSQ R9, X8, X8   // n
	VMOVSS    eps+56(FP), X9
	VMOVSS    fone<>(SB), X10

lnrow:
	// Pass 1: out = x + y, accumulating the row sum.
	VPXORQ Z6, Z6, Z6
	XORQ   R13, R13

lnsumloop:
	CMPQ    R13, R10
	JGE     lnsumtail
	VMOVUPS (SI)(R13*1), Z0
	TESTQ   DX, DX
	JZ      lnsumstore
	VADDPS  (DX)(R13*1), Z0, Z0

lnsumstore:
	VMOVUPS Z0, (DI)(R13*1)
	VADDPS  Z0, Z6, Z6
	ADDQ    $64, R13
	JMP     lnsumloop

lnsumtail:
	VMOVUPS.Z (SI)(R13*1), K1, Z0
	TESTQ     DX, DX
	JZ        lnsumtailstore
	VMOVUPS.Z (DX)(R13*1), K1, Z1
	VADDPS    Z1, Z0, Z0

lnsumtailstore:
	VMOVUPS Z0, K1, (DI)(R13*1)
	VADDPS  Z0, Z6, Z6
	HREDUCEF32(VADDPS, Z6, Y6, X6, Y0, X0)
	VDIVSS  X8, X6, X6
	VBROADCASTSS X6, Z5    // mean

	// Pass 2: variance.
	VPXORQ Z6, Z6, Z6
	XORQ   R13, R13

lnvarloop:
	CMPQ    R13, R10
	JGE     lnvartail
	VMOVUPS (DI)(R13*1), Z0
	VSUBPS  Z5, Z0, Z0
	VFMADD231PS Z0, Z0, Z6
	ADDQ    $64, R13
	JMP     lnvarloop

lnvartail:
	VMOVUPS.Z (DI)(R13*1), K1, Z0
	VSUBPS.Z  Z5, Z0, K1, Z0
	VFMADD231PS Z0, Z0, Z6
	HREDUCEF32(VADDPS, Z6, Y6, X6, Y0, X0)
	VDIVSS  X8, X6, X6
	VADDSS  X9, X6, X6
	VSQRTSS X6, X6, X6
	VDIVSS  X6, X10, X7
	VBROADCASTSS X7, Z7    // 1/sqrt(var+eps)

	// Pass 3: normalise, gain, bias.
	XORQ R13, R13

lnoutloop:
	CMPQ    R13, R10
	JGE     lnouttail
	VMOVUPS (DI)(R13*1), Z0
	VSUBPS  Z5, Z0, Z0
	VMULPS  Z7, Z0, Z0
	VMULPS  (R14)(R13*1), Z0, Z0
	VADDPS  (R15)(R13*1), Z0, Z0
	VMOVUPS Z0, (DI)(R13*1)
	ADDQ    $64, R13
	JMP     lnoutloop

lnouttail:
	VMOVUPS.Z (DI)(R13*1), K1, Z0
	VMOVUPS.Z (R14)(R13*1), K1, Z1
	VMOVUPS.Z (R15)(R13*1), K1, Z2
	VSUBPS  Z5, Z0, Z0
	VMULPS  Z7, Z0, Z0
	VMULPS  Z1, Z0, Z0
	VADDPS  Z2, Z0, Z0
	VMOVUPS Z0, K1, (DI)(R13*1)

	ADDQ  R11, DI
	ADDQ  R11, SI
	TESTQ DX, DX
	JZ    lnnext
	ADDQ  R11, DX

lnnext:
	DECQ R8
	JNZ  lnrow

	VZEROUPPER
	RET
