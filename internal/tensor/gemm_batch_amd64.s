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
// fmaPanel4Asm takes a row count of 4 or 2: a two-row remainder runs rows 0,1
// in both register pairs (rows 2,3 alias them and store the same values), so
// it costs one pass instead of two single-row ones. fmaPanel1Asm walks b in
// 64-column tiles while a full one fits — eight independent accumulators per
// k step, the two FMA pipes times their four-cycle latency, which is what an
// m = 1 product (MLP head, LSTM step) is bound by — and in masked 32-column
// tiles of four accumulators over what is left. fmaPanel9Asm takes the
// products whose row count is a whole number of nine-row history windows —
// every product of an AMMA forward but the pooled heads — in nine-row passes of
// eighteen accumulators, nine over a last register's worth of columns.
//
// vactAVX512 applies an elementwise activation in place: mode 0 is
// exp(x-bias) (softmax numerator), mode 1 sigmoid, mode 2 tanh, mode 3 ReLU
// (max(x, 0) with x as the second source: NaN stays NaN and -0 stays -0, bit
// for bit what the scalar `if v < 0` loop leaves). exp uses
// Cody-Waite range reduction (n = round(x*log2e), r = x - n*ln2hi - n*ln2lo),
// a degree-11 Taylor polynomial in r, and VSCALEFPD for the 2^n scale;
// relative error is ~1e-14, well inside the 1e-9 equivalence budget against
// the math.Exp-based autograd activations. Every clamp takes x as the
// *second* source operand: VMINPD/VMAXPD return that operand when either is
// NaN, so a NaN input comes out NaN (as the math package would give) rather
// than as the clamp bound — a poisoned weight must reach the score screen,
// not be laundered into a healthy-looking gate value.
//
// vsoftmaxRowsAVX512 and vaddLayerNormAVX512 are the row kernels: per-row
// reductions in masked lanes (ragged widths need no padding) around the same
// exp block. Row maxima skip NaN exactly as the scalar `v > max` scan does and
// the NaN then poisons the row through exp and the sum; LayerNorm sums
// propagate it on their own.

#include "textflag.h"

// func fmaPanel4Asm(out, a, b *float64, k, n, rows int64)
TEXT ·fmaPanel4Asm(SB), NOSPLIT, $0-48
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

	// Column masks for this 16-wide tile: K2 covers lanes 0-7, K3 lanes 8-15.
	MOVQ R15, CX
	CMPQ CX, $16
	JLE  lanes4
	MOVQ $16, CX

lanes4:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	MOVQ  AX, BX
	ANDQ  $0xFF, BX
	KMOVW BX, K2
	SHRQ  $8, AX
	KMOVW AX, K3

	// Load the 4x16 accumulator tile from out.
	LEAQ     (DI)(R13*1), BX
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
	LEAQ      (DX)(R9*1), R12
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
	LEAQ    (DI)(R13*1), BX
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
// Full tiles are 64 columns wide: eight accumulators, unmasked, b read as the
// FMA's memory operand. The ragged rest runs in masked 32-column tiles of
// four. Either way an element is its own ascending-p chain.
TEXT ·fmaPanel1Asm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R9

	MOVQ R9, R11
	SHLQ $3, R11
	MOVQ R9, R15

tile8:
	CMPQ R15, $64
	JLT  tile1

	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7

	MOVQ SI, DX
	MOVQ R14, AX
	MOVQ R8, CX

kloop8:
	TESTQ CX, CX
	JLE   kdone8
	VBROADCASTSD (DX), Z12
	VFMADD231PD  (AX), Z12, Z0
	VFMADD231PD  64(AX), Z12, Z1
	VFMADD231PD  128(AX), Z12, Z2
	VFMADD231PD  192(AX), Z12, Z3
	VFMADD231PD  256(AX), Z12, Z4
	VFMADD231PD  320(AX), Z12, Z5
	VFMADD231PD  384(AX), Z12, Z6
	VFMADD231PD  448(AX), Z12, Z7
	ADDQ $8, DX
	ADDQ R11, AX
	DECQ CX
	JMP  kloop8

kdone8:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)

	ADDQ $512, DI
	ADDQ $512, R14
	SUBQ $64, R15
	JMP  tile8

tile1:
	TESTQ R15, R15
	JLE   done1

	// Column masks K2..K5, eight lanes each, for this 32-wide tile.
	MOVQ $-1, AX
	CMPQ R15, $32
	JGE  lanes1
	MOVQ $1, AX
	MOVQ R15, CX
	SHLQ CX, AX
	DECQ AX

lanes1:
	MOVQ  AX, BX
	ANDQ  $0xFF, BX
	KMOVW BX, K2
	SHRQ  $8, AX
	MOVQ  AX, BX
	ANDQ  $0xFF, BX
	KMOVW BX, K3
	SHRQ  $8, AX
	MOVQ  AX, BX
	ANDQ  $0xFF, BX
	KMOVW BX, K4
	SHRQ  $8, AX
	ANDQ  $0xFF, AX
	KMOVW AX, K5

	VMOVUPD.Z (DI), K2, Z0
	VMOVUPD.Z 64(DI), K3, Z1
	VMOVUPD.Z 128(DI), K4, Z2
	VMOVUPD.Z 192(DI), K5, Z3

	MOVQ SI, DX
	MOVQ R14, AX
	MOVQ R8, CX

kloop1:
	TESTQ CX, CX
	JLE   kdone1
	VMOVUPD.Z (AX), K2, Z8
	VMOVUPD.Z 64(AX), K3, Z9
	VMOVUPD.Z 128(AX), K4, Z10
	VMOVUPD.Z 192(AX), K5, Z11
	VBROADCASTSD (DX), Z12
	VFMADD231PD  Z8, Z12, Z0
	VFMADD231PD  Z9, Z12, Z1
	VFMADD231PD  Z10, Z12, Z2
	VFMADD231PD  Z11, Z12, Z3
	ADDQ $8, DX
	ADDQ R11, AX
	DECQ CX
	JMP  kloop1

kdone1:
	VMOVUPD Z0, K2, (DI)
	VMOVUPD Z1, K3, 64(DI)
	VMOVUPD Z2, K4, 128(DI)
	VMOVUPD Z3, K5, 192(DI)

	ADDQ $256, DI
	ADDQ $256, R14
	SUBQ $32, R15
	JMP  tile1

done1:
	VZEROUPPER
	RET

// func fmaPanel9Asm(out, a, b *float64, k, n int64)
//
// Window-row kernel: out += a @ b for nine consecutive rows (tensor.WindowRows,
// one history window) against the shared panel b. Columns go in 16-wide tiles
// of 9 x 2 zmm (eighteen accumulators; the second register masked when fewer
// than 16 columns are left) while more than one register of them remains, and
// a remainder of 1..8 columns in one 9 x 1 tile, so no all-masked register ever
// issues an FMA. Per element it is the ascending-p chain of fmaPanel4Asm, with
// the operands in that kernel's order (accumulator, a, b: which NaN of two an
// FMA keeps goes by position), so the tilings agree bit for bit.
TEXT ·fmaPanel9Asm(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R15  // columns remaining

	MOVQ R8, R10
	SHLQ $3, R10           // a row stride in bytes (k*8)
	MOVQ R15, R11
	SHLQ $3, R11           // b/out row stride in bytes (n*8)
	LEAQ (R10)(R10*2), R9  // three a rows in bytes

tile92:
	CMPQ R15, $8
	JLE  tile91

	// K3 masks the second register: min(remaining-8, 8) lanes.
	LEAQ  -8(R15), CX
	CMPQ  CX, $8
	JLE   lanes92
	MOVQ  $8, CX

lanes92:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K3

	// Rows 0-2 sit at DI, rows 3-5 at DX, rows 6-8 at BX.
	LEAQ (R11)(R11*2), BX
	LEAQ (DI)(BX*1), DX
	LEAQ (DX)(BX*1), BX
	VMOVUPD   (DI), Z0
	VMOVUPD.Z 64(DI), K3, Z1
	VMOVUPD   (DI)(R11*1), Z2
	VMOVUPD.Z 64(DI)(R11*1), K3, Z3
	VMOVUPD   (DI)(R11*2), Z4
	VMOVUPD.Z 64(DI)(R11*2), K3, Z5
	VMOVUPD   (DX), Z6
	VMOVUPD.Z 64(DX), K3, Z7
	VMOVUPD   (DX)(R11*1), Z8
	VMOVUPD.Z 64(DX)(R11*1), K3, Z9
	VMOVUPD   (DX)(R11*2), Z10
	VMOVUPD.Z 64(DX)(R11*2), K3, Z11
	VMOVUPD   (BX), Z12
	VMOVUPD.Z 64(BX), K3, Z13
	VMOVUPD   (BX)(R11*1), Z14
	VMOVUPD.Z 64(BX)(R11*1), K3, Z15
	VMOVUPD   (BX)(R11*2), Z16
	VMOVUPD.Z 64(BX)(R11*2), K3, Z17

	MOVQ SI, DX  // a cursors: rows 0-2, 3-5, 6-8
	LEAQ (SI)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ R14, AX  // b cursor, current tile
	MOVQ R8, CX
	TESTQ CX, CX
	JLE   kdone92

kloop92:
	VMOVUPD   (AX), Z18
	VMOVUPD.Z 64(AX), K3, Z19
	VBROADCASTSD (DX), Z20
	VFMADD231PD  Z18, Z20, Z0
	VFMADD231PD  Z19, Z20, Z1
	VBROADCASTSD (DX)(R10*1), Z21
	VFMADD231PD  Z18, Z21, Z2
	VFMADD231PD  Z19, Z21, Z3
	VBROADCASTSD (DX)(R10*2), Z22
	VFMADD231PD  Z18, Z22, Z4
	VFMADD231PD  Z19, Z22, Z5
	VBROADCASTSD (R12), Z23
	VFMADD231PD  Z18, Z23, Z6
	VFMADD231PD  Z19, Z23, Z7
	VBROADCASTSD (R12)(R10*1), Z24
	VFMADD231PD  Z18, Z24, Z8
	VFMADD231PD  Z19, Z24, Z9
	VBROADCASTSD (R12)(R10*2), Z25
	VFMADD231PD  Z18, Z25, Z10
	VFMADD231PD  Z19, Z25, Z11
	VBROADCASTSD (R13), Z26
	VFMADD231PD  Z18, Z26, Z12
	VFMADD231PD  Z19, Z26, Z13
	VBROADCASTSD (R13)(R10*1), Z27
	VFMADD231PD  Z18, Z27, Z14
	VFMADD231PD  Z19, Z27, Z15
	VBROADCASTSD (R13)(R10*2), Z28
	VFMADD231PD  Z18, Z28, Z16
	VFMADD231PD  Z19, Z28, Z17
	ADDQ $8, DX
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ R11, AX
	DECQ CX
	JNZ  kloop92

kdone92:
	LEAQ (R11)(R11*2), BX
	LEAQ (DI)(BX*1), DX
	LEAQ (DX)(BX*1), BX
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, K3, 64(DI)
	VMOVUPD Z2, (DI)(R11*1)
	VMOVUPD Z3, K3, 64(DI)(R11*1)
	VMOVUPD Z4, (DI)(R11*2)
	VMOVUPD Z5, K3, 64(DI)(R11*2)
	VMOVUPD Z6, (DX)
	VMOVUPD Z7, K3, 64(DX)
	VMOVUPD Z8, (DX)(R11*1)
	VMOVUPD Z9, K3, 64(DX)(R11*1)
	VMOVUPD Z10, (DX)(R11*2)
	VMOVUPD Z11, K3, 64(DX)(R11*2)
	VMOVUPD Z12, (BX)
	VMOVUPD Z13, K3, 64(BX)
	VMOVUPD Z14, (BX)(R11*1)
	VMOVUPD Z15, K3, 64(BX)(R11*1)
	VMOVUPD Z16, (BX)(R11*2)
	VMOVUPD Z17, K3, 64(BX)(R11*2)

	ADDQ $128, DI
	ADDQ $128, R14
	SUBQ $16, R15
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
	VMOVUPD.Z (DI), K2, Z0
	VMOVUPD.Z (DI)(R11*1), K2, Z1
	VMOVUPD.Z (DI)(R11*2), K2, Z2
	VMOVUPD.Z (DX), K2, Z3
	VMOVUPD.Z (DX)(R11*1), K2, Z4
	VMOVUPD.Z (DX)(R11*2), K2, Z5
	VMOVUPD.Z (BX), K2, Z6
	VMOVUPD.Z (BX)(R11*1), K2, Z7
	VMOVUPD.Z (BX)(R11*2), K2, Z8

	MOVQ SI, DX
	LEAQ (SI)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ R14, AX
	MOVQ R8, CX
	TESTQ CX, CX
	JLE   kdone91

kloop91:
	VMOVUPD.Z (AX), K2, Z9
	VBROADCASTSD (DX), Z10
	VFMADD231PD  Z9, Z10, Z0
	VBROADCASTSD (DX)(R10*1), Z11
	VFMADD231PD  Z9, Z11, Z1
	VBROADCASTSD (DX)(R10*2), Z12
	VFMADD231PD  Z9, Z12, Z2
	VBROADCASTSD (R12), Z13
	VFMADD231PD  Z9, Z13, Z3
	VBROADCASTSD (R12)(R10*1), Z14
	VFMADD231PD  Z9, Z14, Z4
	VBROADCASTSD (R12)(R10*2), Z15
	VFMADD231PD  Z9, Z15, Z5
	VBROADCASTSD (R13), Z16
	VFMADD231PD  Z9, Z16, Z6
	VBROADCASTSD (R13)(R10*1), Z17
	VFMADD231PD  Z9, Z17, Z7
	VBROADCASTSD (R13)(R10*2), Z18
	VFMADD231PD  Z9, Z18, Z8
	ADDQ $8, DX
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ R11, AX
	DECQ CX
	JNZ  kloop91

kdone91:
	LEAQ (R11)(R11*2), BX
	LEAQ (DI)(BX*1), DX
	LEAQ (DX)(BX*1), BX
	VMOVUPD Z0, K2, (DI)
	VMOVUPD Z1, K2, (DI)(R11*1)
	VMOVUPD Z2, K2, (DI)(R11*2)
	VMOVUPD Z3, K2, (DX)
	VMOVUPD Z4, K2, (DX)(R11*1)
	VMOVUPD Z5, K2, (DX)(R11*2)
	VMOVUPD Z6, K2, (BX)
	VMOVUPD Z7, K2, (BX)(R11*1)
	VMOVUPD Z8, K2, (BX)(R11*2)

done9:
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
DATA vneginf<>+0(SB)/8, $0xfff0000000000000
GLOBL vneginf<>(SB), RODATA, $8

// EXPCONSTS loads the exp block's constants (and the sigmoid/tanh clamps and
// 1, 2) into Z12..Z30.
#define EXPCONSTS \
	VBROADCASTSD vclamplo<>(SB), Z12; \
	VBROADCASTSD vclamphi<>(SB), Z13; \
	VBROADCASTSD vc11<>(SB), Z14; \
	VBROADCASTSD vc10<>(SB), Z15; \
	VBROADCASTSD vlog2e<>(SB), Z16; \
	VBROADCASTSD vln2hi<>(SB), Z17; \
	VBROADCASTSD vln2lo<>(SB), Z18; \
	VBROADCASTSD vneg40<>(SB), Z19; \
	VBROADCASTSD vpos40<>(SB), Z20; \
	VBROADCASTSD vone<>(SB), Z21; \
	VBROADCASTSD vtwo<>(SB), Z22; \
	VBROADCASTSD vc9<>(SB), Z23; \
	VBROADCASTSD vc8<>(SB), Z24; \
	VBROADCASTSD vc7<>(SB), Z25; \
	VBROADCASTSD vc6<>(SB), Z26; \
	VBROADCASTSD vc5<>(SB), Z27; \
	VBROADCASTSD vc4<>(SB), Z28; \
	VBROADCASTSD vc3<>(SB), Z29; \
	VBROADCASTSD vc2<>(SB), Z30

// EXPZ0 computes Z4 = exp(Z0), clobbering Z0..Z3.
#define EXPZ0 \
	VMINPD       Z0, Z13, Z0; \
	VMAXPD       Z0, Z12, Z0; \
	VMULPD       Z16, Z0, Z1; \
	VRNDSCALEPD  $0, Z1, Z1; \
	VMOVAPD      Z0, Z2; \
	VFNMADD231PD Z17, Z1, Z2; \
	VFNMADD231PD Z18, Z1, Z2; \
	VMOVAPD      Z14, Z3; \
	VFMADD213PD  Z15, Z2, Z3; \
	VFMADD213PD  Z23, Z2, Z3; \
	VFMADD213PD  Z24, Z2, Z3; \
	VFMADD213PD  Z25, Z2, Z3; \
	VFMADD213PD  Z26, Z2, Z3; \
	VFMADD213PD  Z27, Z2, Z3; \
	VFMADD213PD  Z28, Z2, Z3; \
	VFMADD213PD  Z29, Z2, Z3; \
	VFMADD213PD  Z30, Z2, Z3; \
	VFMADD213PD  Z21, Z2, Z3; \
	VFMADD213PD  Z21, Z2, Z3; \
	VSCALEFPD    Z1, Z3, Z4

// HREDUCE folds the eight lanes of one zmm (named as Z, Y, X) into lane 0 of
// X with OP (VADDPD or VMAXPD), using scratch register TY/TX.
#define HREDUCE(OP, Z, Y, X, TY, TX) \
	VEXTRACTF64X4 $1, Z, TY; \
	OP            TY, Y, Y; \
	VEXTRACTF128  $1, Y, TX; \
	OP            TX, X, X; \
	VPERMILPD     $1, X, TX; \
	OP            TX, X, X

// TAILMASK sets K1 to the lanes of a row's last 8-wide chunk (1..8 of them)
// and CHUNKS to the number of full chunks before it; clobbers AX, CX.
#define TAILMASK(COLS, CHUNKS) \
	LEAQ  -1(COLS), CHUNKS; \
	SHRQ  $3, CHUNKS; \
	MOVQ  CHUNKS, AX; \
	SHLQ  $3, AX; \
	MOVQ  COLS, CX; \
	SUBQ  AX, CX; \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	KMOVW AX, K1


// func vactAVX512(p *float64, n, mode int64, bias float64)
TEXT ·vactAVX512(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), R9
	MOVQ mode+16(FP), R10
	VBROADCASTSD bias+24(FP), Z10
	EXPCONSTS

vloop:
	TESTQ R9, R9
	JLE   vdone

	MOVQ R9, CX
	CMPQ CX, $8
	JLE  vlanes
	MOVQ $8, CX

vlanes:
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1

	VMOVUPD.Z (DI), K1, Z0

	CMPQ R10, $1
	JEQ  presig
	CMPQ R10, $2
	JEQ  pretanh
	CMPQ R10, $3
	JEQ  relu

	// mode 0: exp(x - bias)
	VSUBPD Z10, Z0, Z0
	JMP    expblk

relu:
	VPXORQ Z5, Z5, Z5
	VMAXPD Z0, Z5, Z4
	JMP    vstore

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
	EXPZ0

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

// func vsoftmaxRowsAVX512(p, tmp *float64, rows, cols int64)
//
// In-place softmax over each row of a dense [rows x cols] block (rows, cols
// >= 1) in two sweeps: exp(x - max) of every row goes to tmp (same shape),
// then every row of tmp comes back scaled by 1/sum. The round trip through
// tmp is for ragged widths: a masked row store reserves its full 64 bytes, so
// a load of the next row behind it in the same buffer would wait for it to
// retire and serialise the rows (6x slower at 9 columns); this way no load
// trails a store to its own buffer by less than a whole sweep.
TEXT ·vsoftmaxRowsAVX512(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), DI
	MOVQ tmp+8(FP), R14
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	TAILMASK(R9, R10)
	MOVQ R9, R11
	SHLQ $3, R11  // row stride in bytes
	SUBQ DI, R14  // tmp - p: (DX)(R14*1) is the tmp twin of (DX)
	VBROADCASTSD vneginf<>(SB), Z11
	EXPCONSTS

	MOVQ DI, SI
	MOVQ R8, R12

smaxrow:
	VMOVAPD Z11, Z5
	MOVQ    SI, DX
	MOVQ    R10, CX

smaxloop:
	TESTQ   CX, CX
	JLE     smaxtail
	VMOVUPD (DX), Z0
	VMAXPD  Z5, Z0, Z5
	ADDQ    $64, DX
	DECQ    CX
	JMP     smaxloop

smaxtail:
	VMOVAPD Z11, Z0
	VMOVUPD (DX), K1, Z0
	VMAXPD  Z5, Z0, Z5
	HREDUCE(VMAXPD, Z5, Y5, X5, Y0, X0)
	VBROADCASTSD X5, Z5
	MOVQ    SI, DX
	MOVQ    R10, CX

sexploop:
	TESTQ   CX, CX
	JLE     sexptail
	VMOVUPD (DX), Z0
	VSUBPD  Z5, Z0, Z0
	EXPZ0
	VMOVUPD Z4, (DX)(R14*1)
	ADDQ    $64, DX
	DECQ    CX
	JMP     sexploop

sexptail:
	VMOVUPD.Z (DX), K1, Z0
	VSUBPD    Z5, Z0, Z0
	EXPZ0
	VMOVUPD   Z4, K1, (DX)(R14*1)
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
	VADDPD (DX)(R14*1), Z6, Z6
	ADDQ   $64, DX
	DECQ   CX
	JMP    ssumloop

ssumtail:
	VMOVUPD.Z (DX)(R14*1), K1, Z0
	VADDPD    Z0, Z6, Z6
	HREDUCE(VADDPD, Z6, Y6, X6, Y0, X0)
	VDIVSD  X6, X21, X7
	VBROADCASTSD X7, Z7
	MOVQ    SI, DX
	MOVQ    R10, CX

sscaleloop:
	TESTQ   CX, CX
	JLE     sscaletail
	VMULPD  (DX)(R14*1), Z7, Z0
	VMOVUPD Z0, (DX)
	ADDQ    $64, DX
	DECQ    CX
	JMP     sscaleloop

sscaletail:
	VMOVUPD.Z (DX)(R14*1), K1, Z0
	VMULPD    Z7, Z0, Z0
	VMOVUPD   Z0, K1, (DX)
	ADDQ      R11, SI
	DECQ      R12
	JNZ       ssumrow

	VZEROUPPER
	RET

// func vaddLayerNormAVX512(out, x, y, gain, bias *float64, rows, cols int64, eps float64)
//
// out = LayerNorm(x + y) row by row (y may be nil: plain LayerNorm), rows and
// cols >= 1. Each row is summed into out as x + y, reduced to its mean and
// variance in vector lanes, and rewritten as (v-mean)*inv*gain + bias — the
// scalar kernel's operation order, so only the reduction order differs.
TEXT ·vaddLayerNormAVX512(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ gain+24(FP), R14
	MOVQ bias+32(FP), R15
	MOVQ rows+40(FP), R8
	MOVQ cols+48(FP), R9
	TAILMASK(R9, R10)
	MOVQ R9, R11
	SHLQ $3, R11           // row stride in bytes
	SHLQ $6, R10           // byte offset of the tail chunk
	VCVTSI2SDQ R9, X8, X8   // n
	VMOVSD    eps+56(FP), X9
	VMOVSD    vone<>(SB), X10

lnrow:
	// Pass 1: out = x + y, accumulating the row sum.
	VPXORQ Z6, Z6, Z6
	XORQ   R13, R13

lnsumloop:
	CMPQ    R13, R10
	JGE     lnsumtail
	VMOVUPD (SI)(R13*1), Z0
	TESTQ   DX, DX
	JZ      lnsumstore
	VADDPD  (DX)(R13*1), Z0, Z0

lnsumstore:
	VMOVUPD Z0, (DI)(R13*1)
	VADDPD  Z0, Z6, Z6
	ADDQ    $64, R13
	JMP     lnsumloop

lnsumtail:
	VMOVUPD.Z (SI)(R13*1), K1, Z0
	TESTQ     DX, DX
	JZ        lnsumtailstore
	VMOVUPD.Z (DX)(R13*1), K1, Z1
	VADDPD    Z1, Z0, Z0

lnsumtailstore:
	VMOVUPD Z0, K1, (DI)(R13*1)
	VADDPD  Z0, Z6, Z6
	HREDUCE(VADDPD, Z6, Y6, X6, Y0, X0)
	VDIVSD  X8, X6, X6
	VBROADCASTSD X6, Z5    // mean

	// Pass 2: variance.
	VPXORQ Z6, Z6, Z6
	XORQ   R13, R13

lnvarloop:
	CMPQ    R13, R10
	JGE     lnvartail
	VMOVUPD (DI)(R13*1), Z0
	VSUBPD  Z5, Z0, Z0
	VFMADD231PD Z0, Z0, Z6
	ADDQ    $64, R13
	JMP     lnvarloop

lnvartail:
	VMOVUPD.Z (DI)(R13*1), K1, Z0
	VSUBPD.Z  Z5, Z0, K1, Z0
	VFMADD231PD Z0, Z0, Z6
	HREDUCE(VADDPD, Z6, Y6, X6, Y0, X0)
	VDIVSD  X8, X6, X6
	VADDSD  X9, X6, X6
	VSQRTSD X6, X6, X6
	VDIVSD  X6, X10, X7
	VBROADCASTSD X7, Z7    // 1/sqrt(var+eps)

	// Pass 3: normalise, gain, bias.
	XORQ R13, R13

lnoutloop:
	CMPQ    R13, R10
	JGE     lnouttail
	VMOVUPD (DI)(R13*1), Z0
	VSUBPD  Z5, Z0, Z0
	VMULPD  Z7, Z0, Z0
	VMULPD  (R14)(R13*1), Z0, Z0
	VADDPD  (R15)(R13*1), Z0, Z0
	VMOVUPD Z0, (DI)(R13*1)
	ADDQ    $64, R13
	JMP     lnoutloop

lnouttail:
	VMOVUPD.Z (DI)(R13*1), K1, Z0
	VMOVUPD.Z (R14)(R13*1), K1, Z1
	VMOVUPD.Z (R15)(R13*1), K1, Z2
	VSUBPD  Z5, Z0, Z0
	VMULPD  Z7, Z0, Z0
	VMULPD  Z1, Z0, Z0
	VADDPD  Z2, Z0, Z0
	VMOVUPD Z0, K1, (DI)(R13*1)

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
