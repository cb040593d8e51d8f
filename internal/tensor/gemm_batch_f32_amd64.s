//go:build amd64

// AVX-512F kernels for the single-precision inference tier (DESIGN.md §13).
//
// fmaPanel4F32Asm / fmaPanel1F32Asm are the float32 ports of the f64 panel
// kernels: out = seed + a @ b for four (resp. one) consecutive rows of a row-major
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
// vaddLayerNormF32AVX512 is the f32 row kernel and attnBlockF32Asm the f32
// attention block, structured and NaN-transparent exactly like their f64
// twins.

#include "textflag.h"

// SEED9 points BX, DX and R12 at the seeds of a nine-row tile's rows 0, 3 and
// 6 under this column tile, CX at the seed row stride in bytes, and jumps to
// ZERO when there is no seed; clobbers AX.
#define SEED9(ZERO) \
	MOVQ  seed+24(FP), BX; \
	TESTQ BX, BX; \
	JZ    ZERO; \
	SUBQ  out+0(FP), BX; \
	ADDQ  DI, BX; \
	MOVQ  seedStride+48(FP), CX; \
	SHLQ  $2, CX; \
	LEAQ  (CX)(CX*2), AX; \
	LEAQ  (BX)(AX*1), DX; \
	LEAQ  (DX)(AX*1), R12

// ZERO9 clears accumulators Z0..Z8.
#define ZERO9 \
	VPXORQ Z0, Z0, Z0; \
	VPXORQ Z1, Z1, Z1; \
	VPXORQ Z2, Z2, Z2; \
	VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	VPXORQ Z6, Z6, Z6; \
	VPXORQ Z7, Z7, Z7; \
	VPXORQ Z8, Z8, Z8

// func fmaPanel4F32Asm(out, a, b, seed *float32, k, n, seedStride, rows int64)
TEXT ·fmaPanel4F32Asm(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9

	MOVQ R8, R10
	SHLQ $2, R10  // a row stride in bytes (k*4)
	MOVQ R9, R11
	SHLQ $2, R11  // b/out row stride in bytes (n*4)
	MOVQ R9, R15  // columns remaining

	// Byte offsets of the second row pair in a (R9) and out (R13): two row
	// strides for rows = 4, zero for rows = 2 so rows 2,3 alias rows 0,1.
	XORQ R9, R9
	XORQ R13, R13
	CMPQ rows+56(FP), $4
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

	// Seed the 4x32 accumulator tile: +0 without a seed, else the seed rows'
	// columns of this tile (rows 2,3 alias rows 0,1 for rows = 2).
	MOVQ  seed+24(FP), BX
	TESTQ BX, BX
	JNZ   seed4
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    acc4

seed4:
	SUBQ    out+0(FP), BX
	ADDQ    DI, BX              // row 0's seed under this tile
	MOVQ    seedStride+48(FP), CX
	SHLQ    $2, CX              // seed row stride in bytes
	LEAQ    (BX)(CX*2), R12
	TESTQ   R13, R13
	CMOVQEQ BX, R12             // rows 2,3's seed
	VMOVUPS.Z (BX), K2, Z0
	VMOVUPS.Z 64(BX), K3, Z1
	VMOVUPS.Z (BX)(CX*1), K2, Z2
	VMOVUPS.Z 64(BX)(CX*1), K3, Z3
	VMOVUPS.Z (R12), K2, Z4
	VMOVUPS.Z 64(R12), K3, Z5
	VMOVUPS.Z (R12)(CX*1), K2, Z6
	VMOVUPS.Z 64(R12)(CX*1), K3, Z7

acc4:
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
TEXT ·fmaPanel1F32Asm(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9

	MOVQ R9, R11
	SHLQ $2, R11
	MOVQ R9, R15

tile8:
	CMPQ R15, $128
	JLT  tile1

	MOVQ  seed+24(FP), BX
	TESTQ BX, BX
	JNZ   seed8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    acc8

seed8:
	SUBQ    out+0(FP), BX
	ADDQ    DI, BX  // the seed under this tile
	VMOVUPS (BX), Z0
	VMOVUPS 64(BX), Z1
	VMOVUPS 128(BX), Z2
	VMOVUPS 192(BX), Z3
	VMOVUPS 256(BX), Z4
	VMOVUPS 320(BX), Z5
	VMOVUPS 384(BX), Z6
	VMOVUPS 448(BX), Z7

acc8:
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

	MOVQ  seed+24(FP), BX
	TESTQ BX, BX
	JNZ   seed1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JMP    acc1

seed1:
	SUBQ      out+0(FP), BX
	ADDQ      DI, BX
	VMOVUPS.Z (BX), K2, Z0
	VMOVUPS.Z 64(BX), K3, Z1
	VMOVUPS.Z 128(BX), K4, Z2
	VMOVUPS.Z 192(BX), K5, Z3

acc1:
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

// func fmaPanel9F32Asm(out, a, b, seed *float32, k, n, seedStride int64)
//
// Window-row kernel: out = seed + a @ b for nine consecutive rows (tensor.WindowRows,
// one history window) against the shared panel b. Columns go in 32-wide tiles
// of 9 x 2 zmm (eighteen accumulators; the second register masked when fewer
// than 32 columns are left) while more than one register of them remains, and
// a remainder of 1..16 columns in one 9 x 1 tile, so no all-masked register
// ever issues an FMA. Per element it is the ascending-p chain of
// fmaPanel4F32Asm, with the operands in that kernel's order (accumulator, a,
// b: which NaN of two an FMA keeps goes by position), so the tilings agree bit
// for bit.
TEXT ·fmaPanel9F32Asm(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R15  // columns remaining

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

	SEED9(zero92)
	// Seed rows 0-2 sit at BX, rows 3-5 at DX, rows 6-8 at R12; CX is their stride.
	VMOVUPS   (BX), Z0
	VMOVUPS.Z 64(BX), K3, Z1
	VMOVUPS   (BX)(CX*1), Z2
	VMOVUPS.Z 64(BX)(CX*1), K3, Z3
	VMOVUPS   (BX)(CX*2), Z4
	VMOVUPS.Z 64(BX)(CX*2), K3, Z5
	VMOVUPS   (DX), Z6
	VMOVUPS.Z 64(DX), K3, Z7
	VMOVUPS   (DX)(CX*1), Z8
	VMOVUPS.Z 64(DX)(CX*1), K3, Z9
	VMOVUPS   (DX)(CX*2), Z10
	VMOVUPS.Z 64(DX)(CX*2), K3, Z11
	VMOVUPS   (R12), Z12
	VMOVUPS.Z 64(R12), K3, Z13
	VMOVUPS   (R12)(CX*1), Z14
	VMOVUPS.Z 64(R12)(CX*1), K3, Z15
	VMOVUPS   (R12)(CX*2), Z16
	VMOVUPS.Z 64(R12)(CX*2), K3, Z17
	JMP       acc92

zero92:
	ZERO9
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17

acc92:
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

	SEED9(zero91)
	VMOVUPS.Z (BX), K2, Z0
	VMOVUPS.Z (BX)(CX*1), K2, Z1
	VMOVUPS.Z (BX)(CX*2), K2, Z2
	VMOVUPS.Z (DX), K2, Z3
	VMOVUPS.Z (DX)(CX*1), K2, Z4
	VMOVUPS.Z (DX)(CX*2), K2, Z5
	VMOVUPS.Z (R12), K2, Z6
	VMOVUPS.Z (R12)(CX*1), K2, Z7
	VMOVUPS.Z (R12)(CX*2), K2, Z8
	JMP       acc91

zero91:
	ZERO9

acc91:
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
	EXPZCONSTSF32; \
	VBROADCASTSS fneg40<>(SB), Z19; \
	VBROADCASTSS fpos40<>(SB), Z20; \
	VBROADCASTSS ftwo<>(SB), Z22

// EXPZCONSTSF32 loads the constants EXPZ0F32 reads (1 among them, in Z21):
// Z12..Z18, Z21 and Z26..Z30.
#define EXPZCONSTSF32 \
	VBROADCASTSS fclamplo<>(SB), Z12; \
	VBROADCASTSS fclamphi<>(SB), Z13; \
	VBROADCASTSS fc8<>(SB), Z14; \
	VBROADCASTSS fc7<>(SB), Z15; \
	VBROADCASTSS flog2e<>(SB), Z16; \
	VBROADCASTSS fln2hi<>(SB), Z17; \
	VBROADCASTSS fln2lo<>(SB), Z18; \
	VBROADCASTSS fone<>(SB), Z21; \
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

// attnBlockF32Asm computes one attention block, out = softmax(q·(k·scale)ᵀ)·v
// for q, k [t x d] and v, out [t x dv] (t, dv >= 1), in sweeps over arena
// scratch (attnScratch) whose rows are whole zmm, so no load waits on a
// masked store:
//   - qᵀ, transposed in 16x16 register blocks, and k·scale row by row (the
//     one rounding transposeScale made);
//   - the scores transposed, Sᵀ[j][r], in tiles of nine j by one or two
//     16-row chunks: every lane is a query row, so the softmax runs down the
//     lanes with no horizontal step;
//   - the softmax of every query row, the row softmax kernel it replaced op
//     for op: lane l of that kernel's 16-column chunks is a register of its
//     own here, so its lane max and lane sum over the chunks and its HREDUCE
//     fold become elementwise ops over sixteen rows at once; exp(x - max) by
//     EXPZ0F32; one divide for 1/sum, one multiply per element. A ragged last
//     row chunk is packed densely for its exps while the full chunks' run;
//   - the AV product in nine-row tiles, the probabilities broadcast from Sᵀ.
// Both products keep the panel kernels' per-element FMA chain (ascending, from
// +0, each operand in the same FMA position), so every output bit is the
// parent composition's (TestKernelOracleAttention). The rows of a chunk, the
// j of a tile and the chunks of a sweep are independent chains that overlap.

// Code below is generated by internal/tensor/internal/attngen; go test ./internal/tensor/internal/attngen -update
// rewrites it. Edit the generator, not this text.

// func attnBlockF32Asm(out, q, k, v, scr *float32, t, d, dv int64, scale float32)
TEXT ·attnBlockF32Asm(SB), NOSPLIT, $40-68
	MOVQ t+40(FP), R8
	TAILMASKF32(R8, R12)  // K1: lanes of the last row chunk; R12: full row chunks
	LEAQ 1(R12), R11
	SHLQ $6, R11  // tp: one padded row of qᵀ or of the scores, in bytes
	MOVQ d+48(FP), R9

	// qᵀ: d rows of tp, transposed from q in 16x16 register blocks; lanes
	// past row t-1 are +0.
	LEAQ 15(R9), R10
	SHRQ $4, R10  // column chunks of q
	MOVQ R10, AX
	SHLQ $4, AX
	SUBQ R9, AX
	MOVQ $16, CX
	SUBQ AX, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K4  // lanes of a q or k row's last chunk
	MOVQ $0xFFFF, AX
	KMOVW AX, K2
	MOVQ R9, R13
	SHLQ $2, R13  // q row stride in bytes
	XORQ SI, SI  // row chunk offset in qᵀ
	MOVQ q+8(FP), DI  // q rows of this row chunk
	MOVQ R8, BX  // rows left

qtrow:
	XORQ DX, DX  // column chunk offset in q
	MOVQ R10, R15  // column chunks left
	MOVQ scr+32(FP), R14
	ADDQ SI, R14  // qᵀ row p = 0 under this row chunk

qtblk:
	TESTQ R15, R15
	JLE   qtnext
	KMOVW K2, K3
	CMPQ  R15, $1
	JNE   qtload
	KMOVW K4, K3

qtload:
	LEAQ (DI)(DX*1), AX
	MOVQ BX, CX
	VMOVUPS.Z (AX), K3, Z0
	DECQ CX
	JZ   qtz1
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z1
	DECQ CX
	JZ   qtz2
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z2
	DECQ CX
	JZ   qtz3
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z3
	DECQ CX
	JZ   qtz4
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z4
	DECQ CX
	JZ   qtz5
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z5
	DECQ CX
	JZ   qtz6
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z6
	DECQ CX
	JZ   qtz7
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z7
	DECQ CX
	JZ   qtz8
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z8
	DECQ CX
	JZ   qtz9
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z9
	DECQ CX
	JZ   qtz10
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z10
	DECQ CX
	JZ   qtz11
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z11
	DECQ CX
	JZ   qtz12
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z12
	DECQ CX
	JZ   qtz13
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z13
	DECQ CX
	JZ   qtz14
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z14
	DECQ CX
	JZ   qtz15
	ADDQ R13, AX
	VMOVUPS.Z (AX), K3, Z15
	JMP  qtt
qtz1:
	VPXORD Z1, Z1, Z1
qtz2:
	VPXORD Z2, Z2, Z2
qtz3:
	VPXORD Z3, Z3, Z3
qtz4:
	VPXORD Z4, Z4, Z4
qtz5:
	VPXORD Z5, Z5, Z5
qtz6:
	VPXORD Z6, Z6, Z6
qtz7:
	VPXORD Z7, Z7, Z7
qtz8:
	VPXORD Z8, Z8, Z8
qtz9:
	VPXORD Z9, Z9, Z9
qtz10:
	VPXORD Z10, Z10, Z10
qtz11:
	VPXORD Z11, Z11, Z11
qtz12:
	VPXORD Z12, Z12, Z12
qtz13:
	VPXORD Z13, Z13, Z13
qtz14:
	VPXORD Z14, Z14, Z14
qtz15:
	VPXORD Z15, Z15, Z15

qtt:
	VUNPCKLPS Z1, Z0, Z16
	VUNPCKHPS Z1, Z0, Z17
	VUNPCKLPS Z3, Z2, Z18
	VUNPCKHPS Z3, Z2, Z19
	VUNPCKLPS Z5, Z4, Z20
	VUNPCKHPS Z5, Z4, Z21
	VUNPCKLPS Z7, Z6, Z22
	VUNPCKHPS Z7, Z6, Z23
	VUNPCKLPS Z9, Z8, Z24
	VUNPCKHPS Z9, Z8, Z25
	VUNPCKLPS Z11, Z10, Z26
	VUNPCKHPS Z11, Z10, Z27
	VUNPCKLPS Z13, Z12, Z28
	VUNPCKHPS Z13, Z12, Z29
	VUNPCKLPS Z15, Z14, Z30
	VUNPCKHPS Z15, Z14, Z31
	VSHUFPS $0x44, Z18, Z16, Z0
	VSHUFPS $0xEE, Z18, Z16, Z1
	VSHUFPS $0x44, Z19, Z17, Z2
	VSHUFPS $0xEE, Z19, Z17, Z3
	VSHUFPS $0x44, Z22, Z20, Z4
	VSHUFPS $0xEE, Z22, Z20, Z5
	VSHUFPS $0x44, Z23, Z21, Z6
	VSHUFPS $0xEE, Z23, Z21, Z7
	VSHUFPS $0x44, Z26, Z24, Z8
	VSHUFPS $0xEE, Z26, Z24, Z9
	VSHUFPS $0x44, Z27, Z25, Z10
	VSHUFPS $0xEE, Z27, Z25, Z11
	VSHUFPS $0x44, Z30, Z28, Z12
	VSHUFPS $0xEE, Z30, Z28, Z13
	VSHUFPS $0x44, Z31, Z29, Z14
	VSHUFPS $0xEE, Z31, Z29, Z15
	VSHUFF32X4 $0x88, Z4, Z0, Z24
	VSHUFF32X4 $0xDD, Z4, Z0, Z25
	VSHUFF32X4 $0x88, Z12, Z8, Z26
	VSHUFF32X4 $0xDD, Z12, Z8, Z27
	VSHUFF32X4 $0x88, Z26, Z24, Z0
	VSHUFF32X4 $0xDD, Z26, Z24, Z8
	VSHUFF32X4 $0x88, Z27, Z25, Z4
	VSHUFF32X4 $0xDD, Z27, Z25, Z12
	VSHUFF32X4 $0x88, Z5, Z1, Z24
	VSHUFF32X4 $0xDD, Z5, Z1, Z25
	VSHUFF32X4 $0x88, Z13, Z9, Z26
	VSHUFF32X4 $0xDD, Z13, Z9, Z27
	VSHUFF32X4 $0x88, Z26, Z24, Z1
	VSHUFF32X4 $0xDD, Z26, Z24, Z9
	VSHUFF32X4 $0x88, Z27, Z25, Z5
	VSHUFF32X4 $0xDD, Z27, Z25, Z13
	VSHUFF32X4 $0x88, Z6, Z2, Z24
	VSHUFF32X4 $0xDD, Z6, Z2, Z25
	VSHUFF32X4 $0x88, Z14, Z10, Z26
	VSHUFF32X4 $0xDD, Z14, Z10, Z27
	VSHUFF32X4 $0x88, Z26, Z24, Z2
	VSHUFF32X4 $0xDD, Z26, Z24, Z10
	VSHUFF32X4 $0x88, Z27, Z25, Z6
	VSHUFF32X4 $0xDD, Z27, Z25, Z14
	VSHUFF32X4 $0x88, Z7, Z3, Z24
	VSHUFF32X4 $0xDD, Z7, Z3, Z25
	VSHUFF32X4 $0x88, Z15, Z11, Z26
	VSHUFF32X4 $0xDD, Z15, Z11, Z27
	VSHUFF32X4 $0x88, Z26, Z24, Z3
	VSHUFF32X4 $0xDD, Z26, Z24, Z11
	VSHUFF32X4 $0x88, Z27, Z25, Z7
	VSHUFF32X4 $0xDD, Z27, Z25, Z15
	MOVQ d+48(FP), CX
	MOVQ DX, AX
	SHRQ $2, AX
	SUBQ AX, CX  // qᵀ rows left from this block on
	MOVQ R14, AX
	VMOVUPS Z0, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z1, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z2, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z3, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z4, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z5, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z6, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z7, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z8, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z9, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z10, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z11, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z12, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z13, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z14, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPS Z15, (AX)

qtstored:
	ADDQ $64, DX
	MOVQ R11, AX
	SHLQ $4, AX
	ADDQ AX, R14  // 16 qᵀ rows on
	DECQ R15
	JMP  qtblk

qtnext:
	ADDQ $64, SI
	MOVQ R13, AX
	SHLQ $4, AX
	ADDQ AX, DI  // 16 q rows on
	SUBQ $16, BX
	JG   qtrow
	MOVQ d+48(FP), R14
	IMULQ R11, R14
	ADDQ scr+32(FP), R14  // past qᵀ

qtdone:
	// k·scale: t rows of dp (d rounded up to 16, pad lanes +0), then eight
	// rows of +0 that the last score tile may read.
	MOVQ R14, ks-8(SP)
	MOVQ R10, R13
	SHLQ $6, R13  // dp in bytes
	VBROADCASTSS scale+64(FP), Z29
	MOVQ k+16(FP), SI
	MOVQ R9, AX
	SHLQ $2, AX  // k row stride in bytes
	MOVQ R8, BX

ksrow:
	TESTQ BX, BX
	JLE   kspad
	MOVQ  R10, CX
	XORQ  DX, DX

kschunk:
	CMPQ CX, $1
	JLT  ksnext
	JEQ  kslast
	VMOVUPS (SI)(DX*1), Z0
	VMULPS  Z29, Z0, Z0
	VMOVUPS Z0, (R14)(DX*1)
	ADDQ $64, DX
	DECQ CX
	JMP  kschunk

kslast:
	VMOVUPS.Z (SI)(DX*1), K4, Z0
	VMULPS    Z29, Z0, Z0
	VMOVUPS   Z0, (R14)(DX*1)

ksnext:
	ADDQ AX, SI
	ADDQ R13, R14
	DECQ BX
	JMP  ksrow

kspad:
	VPXORD Z0, Z0, Z0
	MOVQ  R10, CX
	SHLQ  $3, CX

kspadloop:
	TESTQ CX, CX
	JLE   ksdone
	VMOVUPS Z0, (R14)
	ADDQ  $64, R14
	DECQ  CX
	JMP   kspadloop

ksdone:
	MOVQ R14, st-16(SP)  // scores, then probabilities: t+8 rows of tp
	LEAQ 8(R8), AX
	IMULQ R11, AX
	ADDQ R14, AX
	MOVQ AX, pack-24(SP)  // a ragged last r-chunk's exp arguments, packed
	MOVQ R8, CX
	INCQ CX
	SHLQ $6, CX
	ADDQ CX, AX
	MOVQ AX, maxima-32(SP)  // one register of row maxima per r-chunk

	// Scores, transposed: row j of the block holds q·(k_j·scale) for every
	// query row r in its lanes, r-chunk by r-chunk, in tiles of nine j by one
	// or two chunks. An element is the ascending-p FMA chain from +0 with
	// q in the FMA's second operand and k·scale in its third, as in the
	// panel kernels, so it is the score the panel GEMM made, bit for bit.
	MOVQ R13, R9  // k·scale row stride
	XORQ R13, R13  // first j of the tile

stile:
	CMPQ R13, R8
	JGE  stdone
	XORQ SI, SI  // row chunk offset
	LEAQ 1(R12), R14  // row chunks left

schunk:
	CMPQ R14, $2
	JLT  sc1
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	MOVQ  R13, DX
	IMULQ R9, DX
	ADDQ  ks-8(SP), DX
	LEAQ  (R9)(R9*2), BX
	LEAQ  (DX)(BX*1), R10
	LEAQ  (R10)(BX*1), R15
	MOVQ  scr+32(FP), AX
	ADDQ  SI, AX
	MOVQ  d+48(FP), CX
	TESTQ CX, CX
	JLE   sc2done

sc2loop:
	VMOVUPS (AX), Z18
	VMOVUPS 64(AX), Z19
	VBROADCASTSS (DX), Z20
	VFMADD231PS  Z20, Z18, Z0
	VFMADD231PS  Z20, Z19, Z1
	VBROADCASTSS (DX)(R9*1), Z21
	VFMADD231PS  Z21, Z18, Z2
	VFMADD231PS  Z21, Z19, Z3
	VBROADCASTSS (DX)(R9*2), Z22
	VFMADD231PS  Z22, Z18, Z4
	VFMADD231PS  Z22, Z19, Z5
	VBROADCASTSS (R10), Z23
	VFMADD231PS  Z23, Z18, Z6
	VFMADD231PS  Z23, Z19, Z7
	VBROADCASTSS (R10)(R9*1), Z24
	VFMADD231PS  Z24, Z18, Z8
	VFMADD231PS  Z24, Z19, Z9
	VBROADCASTSS (R10)(R9*2), Z25
	VFMADD231PS  Z25, Z18, Z10
	VFMADD231PS  Z25, Z19, Z11
	VBROADCASTSS (R15), Z26
	VFMADD231PS  Z26, Z18, Z12
	VFMADD231PS  Z26, Z19, Z13
	VBROADCASTSS (R15)(R9*1), Z27
	VFMADD231PS  Z27, Z18, Z14
	VFMADD231PS  Z27, Z19, Z15
	VBROADCASTSS (R15)(R9*2), Z28
	VFMADD231PS  Z28, Z18, Z16
	VFMADD231PS  Z28, Z19, Z17
	ADDQ $4, DX
	ADDQ $4, R10
	ADDQ $4, R15
	ADDQ R11, AX
	DECQ CX
	JNZ  sc2loop

sc2done:
	MOVQ  R13, DI
	IMULQ R11, DI
	ADDQ  st-16(SP), DI
	ADDQ  SI, DI
	LEAQ  (R11)(R11*2), BX
	LEAQ  (DI)(BX*1), DX
	LEAQ  (DX)(BX*1), R10
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(R11*1)
	VMOVUPS Z3, 64(DI)(R11*1)
	VMOVUPS Z4, (DI)(R11*2)
	VMOVUPS Z5, 64(DI)(R11*2)
	VMOVUPS Z6, (DX)
	VMOVUPS Z7, 64(DX)
	VMOVUPS Z8, (DX)(R11*1)
	VMOVUPS Z9, 64(DX)(R11*1)
	VMOVUPS Z10, (DX)(R11*2)
	VMOVUPS Z11, 64(DX)(R11*2)
	VMOVUPS Z12, (R10)
	VMOVUPS Z13, 64(R10)
	VMOVUPS Z14, (R10)(R11*1)
	VMOVUPS Z15, 64(R10)(R11*1)
	VMOVUPS Z16, (R10)(R11*2)
	VMOVUPS Z17, 64(R10)(R11*2)
	ADDQ $128, SI
	SUBQ $2, R14
	JMP  schunk

sc1:
	TESTQ R14, R14
	JLE   snext
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	MOVQ  R13, DX
	IMULQ R9, DX
	ADDQ  ks-8(SP), DX
	LEAQ  (R9)(R9*2), BX
	LEAQ  (DX)(BX*1), R10
	LEAQ  (R10)(BX*1), R15
	MOVQ  scr+32(FP), AX
	ADDQ  SI, AX
	MOVQ  d+48(FP), CX
	TESTQ CX, CX
	JLE   sc1done

sc1loop:
	VMOVUPS (AX), Z18
	VBROADCASTSS (DX), Z20
	VFMADD231PS  Z20, Z18, Z0
	VBROADCASTSS (DX)(R9*1), Z21
	VFMADD231PS  Z21, Z18, Z1
	VBROADCASTSS (DX)(R9*2), Z22
	VFMADD231PS  Z22, Z18, Z2
	VBROADCASTSS (R10), Z23
	VFMADD231PS  Z23, Z18, Z3
	VBROADCASTSS (R10)(R9*1), Z24
	VFMADD231PS  Z24, Z18, Z4
	VBROADCASTSS (R10)(R9*2), Z25
	VFMADD231PS  Z25, Z18, Z5
	VBROADCASTSS (R15), Z26
	VFMADD231PS  Z26, Z18, Z6
	VBROADCASTSS (R15)(R9*1), Z27
	VFMADD231PS  Z27, Z18, Z7
	VBROADCASTSS (R15)(R9*2), Z28
	VFMADD231PS  Z28, Z18, Z8
	ADDQ $4, DX
	ADDQ $4, R10
	ADDQ $4, R15
	ADDQ R11, AX
	DECQ CX
	JNZ  sc1loop

sc1done:
	MOVQ  R13, DI
	IMULQ R11, DI
	ADDQ  st-16(SP), DI
	ADDQ  SI, DI
	LEAQ  (R11)(R11*2), BX
	LEAQ  (DI)(BX*1), DX
	LEAQ  (DX)(BX*1), R10
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(R11*1)
	VMOVUPS Z2, (DI)(R11*2)
	VMOVUPS Z3, (DX)
	VMOVUPS Z4, (DX)(R11*1)
	VMOVUPS Z5, (DX)(R11*2)
	VMOVUPS Z6, (R10)
	VMOVUPS Z7, (R10)(R11*1)
	VMOVUPS Z8, (R10)(R11*2)

snext:
	ADDQ $9, R13
	JMP  stile

stdone:
	// Softmax down each lane (query row) of every r-chunk. The lane maxima
	// and sums are the ones the row softmax kernel made: per lane l of its
	// 16-column chunks, the running VMAXPS (the score first, so a NaN score
	// never wins) and VADDPS over the full chunks then the tail's lanes, then
	// the HREDUCE fold (lane i with i+8, ...), each op with the same sources
	// in the same places; here every lane of those registers is a register
	// of its own and the fold is elementwise, so no horizontal step is left.
	EXPZCONSTSF32
	MOVQ R8, R15
	MOVQ R12, AX
	SHLQ $4, AX
	SUBQ AX, R15  // columns in the tail chunk

	// Row maxima of every r-chunk, one register each.
	XORQ SI, SI  // row chunk offset
	LEAQ 1(R12), R14  // row chunks left

sm:
	VBROADCASTSS fneginf<>(SB), Z24
	VMOVAPS Z24, Z0
	VMOVAPS Z24, Z1
	VMOVAPS Z24, Z2
	VMOVAPS Z24, Z3
	VMOVAPS Z24, Z4
	VMOVAPS Z24, Z5
	VMOVAPS Z24, Z6
	VMOVAPS Z24, Z7
	VMOVAPS Z24, Z8
	VMOVAPS Z24, Z9
	VMOVAPS Z24, Z10
	VMOVAPS Z24, Z11
	VMOVAPS Z24, Z19
	VMOVAPS Z24, Z20
	VMOVAPS Z24, Z22
	VMOVAPS Z24, Z23
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ R12, CX

mxfull:
	TESTQ CX, CX
	JLE   mxtail
	VMOVUPS (DI), Z24
	VMAXPS Z0, Z24, Z0
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z1, Z24, Z1
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z2, Z24, Z2
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z3, Z24, Z3
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z4, Z24, Z4
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z5, Z24, Z5
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z6, Z24, Z6
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z7, Z24, Z7
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z8, Z24, Z8
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z9, Z24, Z9
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z10, Z24, Z10
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z11, Z24, Z11
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z19, Z24, Z19
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z20, Z24, Z20
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z22, Z24, Z22
	ADDQ R11, DI
	VMOVUPS (DI), Z24
	VMAXPS Z23, Z24, Z23
	ADDQ R11, DI
	DECQ CX
	JMP  mxfull

mxtail:
	MOVQ R15, CX
	VMOVUPS (DI), Z24
	VMAXPS Z0, Z24, Z0
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z1, Z24, Z1
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z2, Z24, Z2
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z3, Z24, Z3
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z4, Z24, Z4
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z5, Z24, Z5
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z6, Z24, Z6
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z7, Z24, Z7
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z8, Z24, Z8
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z9, Z24, Z9
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z10, Z24, Z10
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z11, Z24, Z11
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z19, Z24, Z19
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z20, Z24, Z20
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z22, Z24, Z22
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPS (DI), Z24
	VMAXPS Z23, Z24, Z23
	ADDQ R11, DI

mxfold:
	VMAXPS Z8, Z0, Z0
	VMAXPS Z9, Z1, Z1
	VMAXPS Z10, Z2, Z2
	VMAXPS Z11, Z3, Z3
	VMAXPS Z19, Z4, Z4
	VMAXPS Z20, Z5, Z5
	VMAXPS Z22, Z6, Z6
	VMAXPS Z23, Z7, Z7
	VMAXPS Z4, Z0, Z0
	VMAXPS Z5, Z1, Z1
	VMAXPS Z6, Z2, Z2
	VMAXPS Z7, Z3, Z3
	VMAXPS Z2, Z0, Z0
	VMAXPS Z3, Z1, Z1
	VMAXPS Z1, Z0, Z0
	MOVQ maxima-32(SP), AX
	VMOVUPS Z0, (AX)(SI*1)
	ADDQ $64, SI
	DECQ R14
	JNZ  sm

	// A last r-chunk of R15 < 16 rows behind full ones is packed: its
	// x - max go densely, t runs of R15, so exp takes t·R15/16 registers
	// rather than t, and the full chunks' exps cover the packing's stores.
	// Every store is a whole register; the next run overwrites the spill.
	LEAQ 1(R12), R14
	MOVQ R14, dense-40(SP)  // r-chunks whose exps run in place
	TESTQ R12, R12
	JZ    exall
	CMPQ  R15, $16
	JEQ   exall
	MOVQ  R12, dense-40(SP)
	MOVQ  R12, SI
	SHLQ  $6, SI  // the last chunk
	MOVQ  maxima-32(SP), AX
	VMOVUPS (AX)(SI*1), Z24
	MOVQ  st-16(SP), DI
	ADDQ  SI, DI
	MOVQ  pack-24(SP), AX
	MOVQ  R15, BX
	SHLQ  $2, BX
	MOVQ  R8, CX

pk:
	VMOVUPS (DI), Z0
	VSUBPS  Z24, Z0, Z0
	VMOVUPS Z0, (AX)
	ADDQ    R11, DI
	ADDQ    BX, AX
	DECQ    CX
	JNZ     pk

exall:
	XORQ SI, SI
	MOVQ dense-40(SP), R14

exchunk:
	MOVQ maxima-32(SP), AX
	VMOVUPS (AX)(SI*1), Z24
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ R8, CX

ex:
	VMOVUPS (DI), Z0
	VSUBPS  Z24, Z0, Z0
	EXPZ0F32
	VMOVUPS Z4, (DI)
	ADDQ    R11, DI
	DECQ    CX
	JNZ     ex
	ADDQ $64, SI
	DECQ R14
	JNZ  exchunk
	CMPQ dense-40(SP), R12
	JNE  sumall
	MOVQ  R8, CX
	IMULQ R15, CX
	ADDQ  $15, CX
	SHRQ  $4, CX
	MOVQ  pack-24(SP), AX

pe:
	VMOVUPS (AX), Z0
	EXPZ0F32
	VMOVUPS Z4, (AX)
	ADDQ    $64, AX
	DECQ    CX
	JNZ     pe

	// Sums, 1/sum and the probabilities, r-chunk by r-chunk; a packed
	// chunk, last, is unpacked first, the full chunks having given its exp
	// stores time to land.
sumall:
	XORQ SI, SI
	LEAQ 1(R12), R14

sumchunk:
	CMPQ R14, $1
	JNE  sum0
	CMPQ dense-40(SP), R12
	JNE  sum0
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ pack-24(SP), AX
	MOVQ R15, BX
	SHLQ $2, BX
	MOVQ R8, CX

pu:
	VMOVUPS (AX), Z0
	VMOVUPS Z0, (DI)
	ADDQ    R11, DI
	ADDQ    BX, AX
	DECQ    CX
	JNZ     pu

sum0:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ R12, CX

sumfull:
	TESTQ CX, CX
	JLE   sumtail
	VADDPS (DI), Z0, Z0
	ADDQ R11, DI
	VADDPS (DI), Z1, Z1
	ADDQ R11, DI
	VADDPS (DI), Z2, Z2
	ADDQ R11, DI
	VADDPS (DI), Z3, Z3
	ADDQ R11, DI
	VADDPS (DI), Z4, Z4
	ADDQ R11, DI
	VADDPS (DI), Z5, Z5
	ADDQ R11, DI
	VADDPS (DI), Z6, Z6
	ADDQ R11, DI
	VADDPS (DI), Z7, Z7
	ADDQ R11, DI
	VADDPS (DI), Z8, Z8
	ADDQ R11, DI
	VADDPS (DI), Z9, Z9
	ADDQ R11, DI
	VADDPS (DI), Z10, Z10
	ADDQ R11, DI
	VADDPS (DI), Z11, Z11
	ADDQ R11, DI
	VADDPS (DI), Z19, Z19
	ADDQ R11, DI
	VADDPS (DI), Z20, Z20
	ADDQ R11, DI
	VADDPS (DI), Z22, Z22
	ADDQ R11, DI
	VADDPS (DI), Z23, Z23
	ADDQ R11, DI
	DECQ CX
	JMP  sumfull

sumtail:
	MOVQ R15, CX
	VADDPS (DI), Z0, Z0
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z1, Z1
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z2, Z2
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z3, Z3
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z4, Z4
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z5, Z5
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z6, Z6
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z7, Z7
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z8, Z8
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z9, Z9
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z10, Z10
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z11, Z11
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z19, Z19
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z20, Z20
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z22, Z22
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPS (DI), Z23, Z23
	ADDQ R11, DI

sumfold:
	VADDPS Z8, Z0, Z0
	VADDPS Z9, Z1, Z1
	VADDPS Z10, Z2, Z2
	VADDPS Z11, Z3, Z3
	VADDPS Z19, Z4, Z4
	VADDPS Z20, Z5, Z5
	VADDPS Z22, Z6, Z6
	VADDPS Z23, Z7, Z7
	VADDPS Z4, Z0, Z0
	VADDPS Z5, Z1, Z1
	VADDPS Z6, Z2, Z2
	VADDPS Z7, Z3, Z3
	VADDPS Z2, Z0, Z0
	VADDPS Z3, Z1, Z1
	VADDPS Z1, Z0, Z0
	VDIVPS Z0, Z21, Z0  // 1/sum
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ R12, CX
	SHLQ $4, CX  // columns in full chunks: 1/sum·e

nmfull:
	TESTQ CX, CX
	JLE   nmtail
	VMULPS  (DI), Z0, Z1
	VMOVUPS Z1, (DI)
	ADDQ    R11, DI
	DECQ    CX
	JMP     nmfull

nmtail:
	MOVQ R15, CX  // the tail chunk's: e·1/sum

nmtailloop:
	VMOVUPS (DI), Z1
	VMULPS  Z0, Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ    R11, DI
	DECQ    CX
	JNZ     nmtailloop
	ADDQ $64, SI
	DECQ R14
	JNZ  sumchunk

	// AV: out rows r0..r0+8 by one or two column chunks, the ascending-j FMA
	// chain from +0 with the probability (broadcast from lane r of
	// probability row j) second and v third, as the panel GEMM had them.
	// Rows past t are computed from pad lanes and not stored.
	MOVQ dv+56(FP), R9
	SHLQ $2, R9  // v and out row stride
	XORQ R13, R13

atile:
	CMPQ R13, R8
	JGE  done
	MOVQ dv+56(FP), BX  // columns left
	XORQ SI, SI  // column offset in bytes

acol:
	CMPQ BX, $16
	JLE  av1
	LEAQ -16(BX), CX
	CMPQ CX, $16
	JLE  avlanes
	MOVQ $16, CX

avlanes:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K3
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	MOVQ st-16(SP), AX
	LEAQ (AX)(R13*4), AX  // probability of row r0, column j = 0
	MOVQ v+24(FP), DX
	ADDQ SI, DX
	MOVQ R8, CX

av2loop:
	VMOVUPS   (DX), Z18
	VMOVUPS.Z 64(DX), K3, Z19
	VBROADCASTSS 0(AX), Z20
	VFMADD231PS  Z18, Z20, Z0
	VFMADD231PS  Z19, Z20, Z1
	VBROADCASTSS 4(AX), Z21
	VFMADD231PS  Z18, Z21, Z2
	VFMADD231PS  Z19, Z21, Z3
	VBROADCASTSS 8(AX), Z22
	VFMADD231PS  Z18, Z22, Z4
	VFMADD231PS  Z19, Z22, Z5
	VBROADCASTSS 12(AX), Z23
	VFMADD231PS  Z18, Z23, Z6
	VFMADD231PS  Z19, Z23, Z7
	VBROADCASTSS 16(AX), Z24
	VFMADD231PS  Z18, Z24, Z8
	VFMADD231PS  Z19, Z24, Z9
	VBROADCASTSS 20(AX), Z25
	VFMADD231PS  Z18, Z25, Z10
	VFMADD231PS  Z19, Z25, Z11
	VBROADCASTSS 24(AX), Z26
	VFMADD231PS  Z18, Z26, Z12
	VFMADD231PS  Z19, Z26, Z13
	VBROADCASTSS 28(AX), Z27
	VFMADD231PS  Z18, Z27, Z14
	VFMADD231PS  Z19, Z27, Z15
	VBROADCASTSS 32(AX), Z28
	VFMADD231PS  Z18, Z28, Z16
	VFMADD231PS  Z19, Z28, Z17
	ADDQ R11, AX
	ADDQ R9, DX
	DECQ CX
	JNZ  av2loop
	MOVQ  R13, DI
	IMULQ R9, DI
	ADDQ  out+0(FP), DI
	ADDQ  SI, DI
	MOVQ  R8, CX
	SUBQ  R13, CX  // rows left
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPS Z8, (DI)
	VMOVUPS Z9, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPS Z10, (DI)
	VMOVUPS Z11, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPS Z12, (DI)
	VMOVUPS Z13, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPS Z14, (DI)
	VMOVUPS Z15, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPS Z16, (DI)
	VMOVUPS Z17, K3, 64(DI)

av2stored:
	ADDQ $128, SI
	SUBQ $32, BX
	JMP  acol

av1:
	TESTQ BX, BX
	JLE   anext
	MOVQ  BX, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K3
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	MOVQ st-16(SP), AX
	LEAQ (AX)(R13*4), AX  // probability of row r0, column j = 0
	MOVQ v+24(FP), DX
	ADDQ SI, DX
	MOVQ R8, CX

av1loop:
	VMOVUPS.Z (DX), K3, Z18
	VBROADCASTSS 0(AX), Z20
	VFMADD231PS  Z18, Z20, Z0
	VBROADCASTSS 4(AX), Z21
	VFMADD231PS  Z18, Z21, Z1
	VBROADCASTSS 8(AX), Z22
	VFMADD231PS  Z18, Z22, Z2
	VBROADCASTSS 12(AX), Z23
	VFMADD231PS  Z18, Z23, Z3
	VBROADCASTSS 16(AX), Z24
	VFMADD231PS  Z18, Z24, Z4
	VBROADCASTSS 20(AX), Z25
	VFMADD231PS  Z18, Z25, Z5
	VBROADCASTSS 24(AX), Z26
	VFMADD231PS  Z18, Z26, Z6
	VBROADCASTSS 28(AX), Z27
	VFMADD231PS  Z18, Z27, Z7
	VBROADCASTSS 32(AX), Z28
	VFMADD231PS  Z18, Z28, Z8
	ADDQ R11, AX
	ADDQ R9, DX
	DECQ CX
	JNZ  av1loop
	MOVQ  R13, DI
	IMULQ R9, DI
	ADDQ  out+0(FP), DI
	ADDQ  SI, DI
	MOVQ  R8, CX
	SUBQ  R13, CX  // rows left
	VMOVUPS Z0, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPS Z1, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPS Z2, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPS Z3, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPS Z4, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPS Z5, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPS Z6, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPS Z7, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPS Z8, K3, (DI)

av1stored:
anext:
	ADDQ $9, R13
	JMP  atile

done:
	VZEROUPPER
	RET
