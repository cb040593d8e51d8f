//go:build amd64

// AVX-512F kernels for the batched inference tier.
//
// fmaPanel4Asm / fmaPanel1Asm compute out = seed + a @ b for four (resp. one)
// consecutive rows of a row-major activation block against one shared weight
// panel b. The seed is where each accumulator tile starts: the rows of out
// itself (accumulate), one bias row under every row (seed stride 0), or +0
// (no seed), so a biased product never copies its bias into out first. The panel is walked in 16-column zmm tiles so each b cache line is
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
// vaddLayerNormAVX512 is the row kernel: per-row reductions in masked lanes
// (ragged widths need no padding); LayerNorm sums propagate a NaN on their
// own. attnBlockAsm is one whole attention block (see attnBlockF32Asm in
// gemm_batch_f32_amd64.s for the layout): scores, softmax and AV product on
// arena scratch, its row maxima skipping NaN exactly as the scalar `v > max`
// scan does, so the NaN then poisons its row through exp and the sum.

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
	SHLQ  $3, CX; \
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

// func fmaPanel4Asm(out, a, b, seed *float64, k, n, seedStride, rows int64)
TEXT ·fmaPanel4Asm(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9

	MOVQ R8, R10
	SHLQ $3, R10  // a row stride in bytes (k*8)
	MOVQ R9, R11
	SHLQ $3, R11  // b/out row stride in bytes (n*8)
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

	// Seed the 4x16 accumulator tile: +0 without a seed, else the seed rows'
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
	SHLQ    $3, CX              // seed row stride in bytes
	LEAQ    (BX)(CX*2), R12
	TESTQ   R13, R13
	CMOVQEQ BX, R12             // rows 2,3's seed
	VMOVUPD.Z (BX), K2, Z0
	VMOVUPD.Z 64(BX), K3, Z1
	VMOVUPD.Z (BX)(CX*1), K2, Z2
	VMOVUPD.Z 64(BX)(CX*1), K3, Z3
	VMOVUPD.Z (R12), K2, Z4
	VMOVUPD.Z 64(R12), K3, Z5
	VMOVUPD.Z (R12)(CX*1), K2, Z6
	VMOVUPD.Z 64(R12)(CX*1), K3, Z7

acc4:
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
TEXT ·fmaPanel1Asm(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R9

	MOVQ R9, R11
	SHLQ $3, R11
	MOVQ R9, R15

tile8:
	CMPQ R15, $64
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
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD 256(BX), Z4
	VMOVUPD 320(BX), Z5
	VMOVUPD 384(BX), Z6
	VMOVUPD 448(BX), Z7

acc8:
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
	VMOVUPD.Z (BX), K2, Z0
	VMOVUPD.Z 64(BX), K3, Z1
	VMOVUPD.Z 128(BX), K4, Z2
	VMOVUPD.Z 192(BX), K5, Z3

acc1:
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

// func fmaPanel9Asm(out, a, b, seed *float64, k, n, seedStride int64)
//
// Window-row kernel: out = seed + a @ b for nine consecutive rows (tensor.WindowRows,
// one history window) against the shared panel b. Columns go in 16-wide tiles
// of 9 x 2 zmm (eighteen accumulators; the second register masked when fewer
// than 16 columns are left) while more than one register of them remains, and
// a remainder of 1..8 columns in one 9 x 1 tile, so no all-masked register ever
// issues an FMA. Per element it is the ascending-p chain of fmaPanel4Asm, with
// the operands in that kernel's order (accumulator, a, b: which NaN of two an
// FMA keeps goes by position), so the tilings agree bit for bit.
TEXT ·fmaPanel9Asm(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R14
	MOVQ k+32(FP), R8
	MOVQ n+40(FP), R15  // columns remaining

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

	SEED9(zero92)
	// Seed rows 0-2 sit at BX, rows 3-5 at DX, rows 6-8 at R12; CX is their stride.
	VMOVUPD   (BX), Z0
	VMOVUPD.Z 64(BX), K3, Z1
	VMOVUPD   (BX)(CX*1), Z2
	VMOVUPD.Z 64(BX)(CX*1), K3, Z3
	VMOVUPD   (BX)(CX*2), Z4
	VMOVUPD.Z 64(BX)(CX*2), K3, Z5
	VMOVUPD   (DX), Z6
	VMOVUPD.Z 64(DX), K3, Z7
	VMOVUPD   (DX)(CX*1), Z8
	VMOVUPD.Z 64(DX)(CX*1), K3, Z9
	VMOVUPD   (DX)(CX*2), Z10
	VMOVUPD.Z 64(DX)(CX*2), K3, Z11
	VMOVUPD   (R12), Z12
	VMOVUPD.Z 64(R12), K3, Z13
	VMOVUPD   (R12)(CX*1), Z14
	VMOVUPD.Z 64(R12)(CX*1), K3, Z15
	VMOVUPD   (R12)(CX*2), Z16
	VMOVUPD.Z 64(R12)(CX*2), K3, Z17
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

	SEED9(zero91)
	VMOVUPD.Z (BX), K2, Z0
	VMOVUPD.Z (BX)(CX*1), K2, Z1
	VMOVUPD.Z (BX)(CX*2), K2, Z2
	VMOVUPD.Z (DX), K2, Z3
	VMOVUPD.Z (DX)(CX*1), K2, Z4
	VMOVUPD.Z (DX)(CX*2), K2, Z5
	VMOVUPD.Z (R12), K2, Z6
	VMOVUPD.Z (R12)(CX*1), K2, Z7
	VMOVUPD.Z (R12)(CX*2), K2, Z8
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
	EXPZCONSTS; \
	VBROADCASTSD vneg40<>(SB), Z19; \
	VBROADCASTSD vpos40<>(SB), Z20; \
	VBROADCASTSD vtwo<>(SB), Z22

// EXPZCONSTS loads the constants EXPZ0 reads (1 among them, in Z21): Z12..Z18,
// Z21 and Z23..Z30.
#define EXPZCONSTS \
	VBROADCASTSD vclamplo<>(SB), Z12; \
	VBROADCASTSD vclamphi<>(SB), Z13; \
	VBROADCASTSD vc11<>(SB), Z14; \
	VBROADCASTSD vc10<>(SB), Z15; \
	VBROADCASTSD vlog2e<>(SB), Z16; \
	VBROADCASTSD vln2hi<>(SB), Z17; \
	VBROADCASTSD vln2lo<>(SB), Z18; \
	VBROADCASTSD vone<>(SB), Z21; \
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

// attnBlockAsm is the f64 twin of attnBlockF32Asm (gemm_batch_f32_amd64.s)
// with 8-lane chunks, EXPZ0 and the HREDUCE fold.

// Code below is generated by internal/tensor/internal/attngen; go test ./internal/tensor/internal/attngen -update
// rewrites it. Edit the generator, not this text.

// func attnBlockAsm(out, q, k, v, scr *float64, t, d, dv int64, scale float64)
TEXT ·attnBlockAsm(SB), NOSPLIT, $40-72
	MOVQ t+40(FP), R8
	TAILMASK(R8, R12)  // K1: lanes of the last row chunk; R12: full row chunks
	LEAQ 1(R12), R11
	SHLQ $6, R11  // tp: one padded row of qᵀ or of the scores, in bytes
	MOVQ d+48(FP), R9

	// qᵀ: d rows of tp, transposed from q in 8x8 register blocks; lanes
	// past row t-1 are +0.
	LEAQ 7(R9), R10
	SHRQ $3, R10  // column chunks of q
	MOVQ R10, AX
	SHLQ $3, AX
	SUBQ R9, AX
	MOVQ $8, CX
	SUBQ AX, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K4  // lanes of a q or k row's last chunk
	MOVQ $0xFF, AX
	KMOVW AX, K2
	MOVQ R9, R13
	SHLQ $3, R13  // q row stride in bytes
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
	VMOVUPD.Z (AX), K3, Z0
	DECQ CX
	JZ   qtz1
	ADDQ R13, AX
	VMOVUPD.Z (AX), K3, Z1
	DECQ CX
	JZ   qtz2
	ADDQ R13, AX
	VMOVUPD.Z (AX), K3, Z2
	DECQ CX
	JZ   qtz3
	ADDQ R13, AX
	VMOVUPD.Z (AX), K3, Z3
	DECQ CX
	JZ   qtz4
	ADDQ R13, AX
	VMOVUPD.Z (AX), K3, Z4
	DECQ CX
	JZ   qtz5
	ADDQ R13, AX
	VMOVUPD.Z (AX), K3, Z5
	DECQ CX
	JZ   qtz6
	ADDQ R13, AX
	VMOVUPD.Z (AX), K3, Z6
	DECQ CX
	JZ   qtz7
	ADDQ R13, AX
	VMOVUPD.Z (AX), K3, Z7
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

qtt:
	VUNPCKLPD Z1, Z0, Z16
	VUNPCKHPD Z1, Z0, Z17
	VUNPCKLPD Z3, Z2, Z18
	VUNPCKHPD Z3, Z2, Z19
	VUNPCKLPD Z5, Z4, Z20
	VUNPCKHPD Z5, Z4, Z21
	VUNPCKLPD Z7, Z6, Z22
	VUNPCKHPD Z7, Z6, Z23
	VSHUFF64X2 $0x88, Z18, Z16, Z24
	VSHUFF64X2 $0xDD, Z18, Z16, Z25
	VSHUFF64X2 $0x88, Z22, Z20, Z26
	VSHUFF64X2 $0xDD, Z22, Z20, Z27
	VSHUFF64X2 $0x88, Z26, Z24, Z0
	VSHUFF64X2 $0xDD, Z26, Z24, Z4
	VSHUFF64X2 $0x88, Z27, Z25, Z2
	VSHUFF64X2 $0xDD, Z27, Z25, Z6
	VSHUFF64X2 $0x88, Z19, Z17, Z24
	VSHUFF64X2 $0xDD, Z19, Z17, Z25
	VSHUFF64X2 $0x88, Z23, Z21, Z26
	VSHUFF64X2 $0xDD, Z23, Z21, Z27
	VSHUFF64X2 $0x88, Z26, Z24, Z1
	VSHUFF64X2 $0xDD, Z26, Z24, Z5
	VSHUFF64X2 $0x88, Z27, Z25, Z3
	VSHUFF64X2 $0xDD, Z27, Z25, Z7
	MOVQ d+48(FP), CX
	MOVQ DX, AX
	SHRQ $3, AX
	SUBQ AX, CX  // qᵀ rows left from this block on
	MOVQ R14, AX
	VMOVUPD Z0, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPD Z1, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPD Z2, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPD Z3, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPD Z4, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPD Z5, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPD Z6, (AX)
	DECQ CX
	JZ   qtstored
	ADDQ R11, AX
	VMOVUPD Z7, (AX)

qtstored:
	ADDQ $64, DX
	MOVQ R11, AX
	SHLQ $3, AX
	ADDQ AX, R14  // 8 qᵀ rows on
	DECQ R15
	JMP  qtblk

qtnext:
	ADDQ $64, SI
	MOVQ R13, AX
	SHLQ $3, AX
	ADDQ AX, DI  // 8 q rows on
	SUBQ $8, BX
	JG   qtrow
	MOVQ d+48(FP), R14
	IMULQ R11, R14
	ADDQ scr+32(FP), R14  // past qᵀ

qtdone:
	// k·scale: t rows of dp (d rounded up to 8, pad lanes +0), then eight
	// rows of +0 that the last score tile may read.
	MOVQ R14, ks-8(SP)
	MOVQ R10, R13
	SHLQ $6, R13  // dp in bytes
	VBROADCASTSD scale+64(FP), Z29
	MOVQ k+16(FP), SI
	MOVQ R9, AX
	SHLQ $3, AX  // k row stride in bytes
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
	VMOVUPD (SI)(DX*1), Z0
	VMULPD  Z29, Z0, Z0
	VMOVUPD Z0, (R14)(DX*1)
	ADDQ $64, DX
	DECQ CX
	JMP  kschunk

kslast:
	VMOVUPD.Z (SI)(DX*1), K4, Z0
	VMULPD    Z29, Z0, Z0
	VMOVUPD   Z0, (R14)(DX*1)

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
	VMOVUPD Z0, (R14)
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
	VMOVUPD (AX), Z18
	VMOVUPD 64(AX), Z19
	VBROADCASTSD (DX), Z20
	VFMADD231PD  Z20, Z18, Z0
	VFMADD231PD  Z20, Z19, Z1
	VBROADCASTSD (DX)(R9*1), Z21
	VFMADD231PD  Z21, Z18, Z2
	VFMADD231PD  Z21, Z19, Z3
	VBROADCASTSD (DX)(R9*2), Z22
	VFMADD231PD  Z22, Z18, Z4
	VFMADD231PD  Z22, Z19, Z5
	VBROADCASTSD (R10), Z23
	VFMADD231PD  Z23, Z18, Z6
	VFMADD231PD  Z23, Z19, Z7
	VBROADCASTSD (R10)(R9*1), Z24
	VFMADD231PD  Z24, Z18, Z8
	VFMADD231PD  Z24, Z19, Z9
	VBROADCASTSD (R10)(R9*2), Z25
	VFMADD231PD  Z25, Z18, Z10
	VFMADD231PD  Z25, Z19, Z11
	VBROADCASTSD (R15), Z26
	VFMADD231PD  Z26, Z18, Z12
	VFMADD231PD  Z26, Z19, Z13
	VBROADCASTSD (R15)(R9*1), Z27
	VFMADD231PD  Z27, Z18, Z14
	VFMADD231PD  Z27, Z19, Z15
	VBROADCASTSD (R15)(R9*2), Z28
	VFMADD231PD  Z28, Z18, Z16
	VFMADD231PD  Z28, Z19, Z17
	ADDQ $8, DX
	ADDQ $8, R10
	ADDQ $8, R15
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
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R11*1)
	VMOVUPD Z3, 64(DI)(R11*1)
	VMOVUPD Z4, (DI)(R11*2)
	VMOVUPD Z5, 64(DI)(R11*2)
	VMOVUPD Z6, (DX)
	VMOVUPD Z7, 64(DX)
	VMOVUPD Z8, (DX)(R11*1)
	VMOVUPD Z9, 64(DX)(R11*1)
	VMOVUPD Z10, (DX)(R11*2)
	VMOVUPD Z11, 64(DX)(R11*2)
	VMOVUPD Z12, (R10)
	VMOVUPD Z13, 64(R10)
	VMOVUPD Z14, (R10)(R11*1)
	VMOVUPD Z15, 64(R10)(R11*1)
	VMOVUPD Z16, (R10)(R11*2)
	VMOVUPD Z17, 64(R10)(R11*2)
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
	VMOVUPD (AX), Z18
	VBROADCASTSD (DX), Z20
	VFMADD231PD  Z20, Z18, Z0
	VBROADCASTSD (DX)(R9*1), Z21
	VFMADD231PD  Z21, Z18, Z1
	VBROADCASTSD (DX)(R9*2), Z22
	VFMADD231PD  Z22, Z18, Z2
	VBROADCASTSD (R10), Z23
	VFMADD231PD  Z23, Z18, Z3
	VBROADCASTSD (R10)(R9*1), Z24
	VFMADD231PD  Z24, Z18, Z4
	VBROADCASTSD (R10)(R9*2), Z25
	VFMADD231PD  Z25, Z18, Z5
	VBROADCASTSD (R15), Z26
	VFMADD231PD  Z26, Z18, Z6
	VBROADCASTSD (R15)(R9*1), Z27
	VFMADD231PD  Z27, Z18, Z7
	VBROADCASTSD (R15)(R9*2), Z28
	VFMADD231PD  Z28, Z18, Z8
	ADDQ $8, DX
	ADDQ $8, R10
	ADDQ $8, R15
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
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R11*1)
	VMOVUPD Z2, (DI)(R11*2)
	VMOVUPD Z3, (DX)
	VMOVUPD Z4, (DX)(R11*1)
	VMOVUPD Z5, (DX)(R11*2)
	VMOVUPD Z6, (R10)
	VMOVUPD Z7, (R10)(R11*1)
	VMOVUPD Z8, (R10)(R11*2)

snext:
	ADDQ $9, R13
	JMP  stile

stdone:
	// Softmax down each lane (query row) of every r-chunk. The lane maxima
	// and sums are the ones the row softmax kernel made: per lane l of its
	// 8-column chunks, the running VMAXPD (the score first, so a NaN score
	// never wins) and VADDPD over the full chunks then the tail's lanes, then
	// the HREDUCE fold (lane i with i+4, ...), each op with the same sources
	// in the same places; here every lane of those registers is a register
	// of its own and the fold is elementwise, so no horizontal step is left.
	EXPZCONSTS
	MOVQ R8, R15
	MOVQ R12, AX
	SHLQ $3, AX
	SUBQ AX, R15  // columns in the tail chunk

	// Row maxima of every r-chunk, one register each.
	XORQ SI, SI  // row chunk offset
	LEAQ 1(R12), R14  // row chunks left

sm:
	VBROADCASTSD vneginf<>(SB), Z8
	VMOVAPD Z8, Z0
	VMOVAPD Z8, Z1
	VMOVAPD Z8, Z2
	VMOVAPD Z8, Z3
	VMOVAPD Z8, Z4
	VMOVAPD Z8, Z5
	VMOVAPD Z8, Z6
	VMOVAPD Z8, Z7
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ R12, CX

mxfull:
	TESTQ CX, CX
	JLE   mxtail
	VMOVUPD (DI), Z8
	VMAXPD Z0, Z8, Z0
	ADDQ R11, DI
	VMOVUPD (DI), Z8
	VMAXPD Z1, Z8, Z1
	ADDQ R11, DI
	VMOVUPD (DI), Z8
	VMAXPD Z2, Z8, Z2
	ADDQ R11, DI
	VMOVUPD (DI), Z8
	VMAXPD Z3, Z8, Z3
	ADDQ R11, DI
	VMOVUPD (DI), Z8
	VMAXPD Z4, Z8, Z4
	ADDQ R11, DI
	VMOVUPD (DI), Z8
	VMAXPD Z5, Z8, Z5
	ADDQ R11, DI
	VMOVUPD (DI), Z8
	VMAXPD Z6, Z8, Z6
	ADDQ R11, DI
	VMOVUPD (DI), Z8
	VMAXPD Z7, Z8, Z7
	ADDQ R11, DI
	DECQ CX
	JMP  mxfull

mxtail:
	MOVQ R15, CX
	VMOVUPD (DI), Z8
	VMAXPD Z0, Z8, Z0
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPD (DI), Z8
	VMAXPD Z1, Z8, Z1
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPD (DI), Z8
	VMAXPD Z2, Z8, Z2
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPD (DI), Z8
	VMAXPD Z3, Z8, Z3
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPD (DI), Z8
	VMAXPD Z4, Z8, Z4
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPD (DI), Z8
	VMAXPD Z5, Z8, Z5
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPD (DI), Z8
	VMAXPD Z6, Z8, Z6
	ADDQ R11, DI
	DECQ CX
	JZ   mxfold
	VMOVUPD (DI), Z8
	VMAXPD Z7, Z8, Z7
	ADDQ R11, DI

mxfold:
	VMAXPD Z4, Z0, Z0
	VMAXPD Z5, Z1, Z1
	VMAXPD Z6, Z2, Z2
	VMAXPD Z7, Z3, Z3
	VMAXPD Z2, Z0, Z0
	VMAXPD Z3, Z1, Z1
	VMAXPD Z1, Z0, Z0
	MOVQ maxima-32(SP), AX
	VMOVUPD Z0, (AX)(SI*1)
	ADDQ $64, SI
	DECQ R14
	JNZ  sm

	// A last r-chunk of R15 < 8 rows behind full ones is packed: its
	// x - max go densely, t runs of R15, so exp takes t·R15/8 registers
	// rather than t, and the full chunks' exps cover the packing's stores.
	// Every store is a whole register; the next run overwrites the spill.
	LEAQ 1(R12), R14
	MOVQ R14, dense-40(SP)  // r-chunks whose exps run in place
	TESTQ R12, R12
	JZ    exall
	CMPQ  R15, $8
	JEQ   exall
	MOVQ  R12, dense-40(SP)
	MOVQ  R12, SI
	SHLQ  $6, SI  // the last chunk
	MOVQ  maxima-32(SP), AX
	VMOVUPD (AX)(SI*1), Z10
	MOVQ  st-16(SP), DI
	ADDQ  SI, DI
	MOVQ  pack-24(SP), AX
	MOVQ  R15, BX
	SHLQ  $3, BX
	MOVQ  R8, CX

pk:
	VMOVUPD (DI), Z0
	VSUBPD  Z10, Z0, Z0
	VMOVUPD Z0, (AX)
	ADDQ    R11, DI
	ADDQ    BX, AX
	DECQ    CX
	JNZ     pk

exall:
	XORQ SI, SI
	MOVQ dense-40(SP), R14

exchunk:
	MOVQ maxima-32(SP), AX
	VMOVUPD (AX)(SI*1), Z10
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ R8, CX

ex:
	VMOVUPD (DI), Z0
	VSUBPD  Z10, Z0, Z0
	EXPZ0
	VMOVUPD Z4, (DI)
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
	ADDQ  $7, CX
	SHRQ  $3, CX
	MOVQ  pack-24(SP), AX

pe:
	VMOVUPD (AX), Z0
	EXPZ0
	VMOVUPD Z4, (AX)
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
	SHLQ $3, BX
	MOVQ R8, CX

pu:
	VMOVUPD (AX), Z0
	VMOVUPD Z0, (DI)
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
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ R12, CX

sumfull:
	TESTQ CX, CX
	JLE   sumtail
	VADDPD (DI), Z0, Z0
	ADDQ R11, DI
	VADDPD (DI), Z1, Z1
	ADDQ R11, DI
	VADDPD (DI), Z2, Z2
	ADDQ R11, DI
	VADDPD (DI), Z3, Z3
	ADDQ R11, DI
	VADDPD (DI), Z4, Z4
	ADDQ R11, DI
	VADDPD (DI), Z5, Z5
	ADDQ R11, DI
	VADDPD (DI), Z6, Z6
	ADDQ R11, DI
	VADDPD (DI), Z7, Z7
	ADDQ R11, DI
	DECQ CX
	JMP  sumfull

sumtail:
	MOVQ R15, CX
	VADDPD (DI), Z0, Z0
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPD (DI), Z1, Z1
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPD (DI), Z2, Z2
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPD (DI), Z3, Z3
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPD (DI), Z4, Z4
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPD (DI), Z5, Z5
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPD (DI), Z6, Z6
	ADDQ R11, DI
	DECQ CX
	JZ   sumfold
	VADDPD (DI), Z7, Z7
	ADDQ R11, DI

sumfold:
	VADDPD Z4, Z0, Z0
	VADDPD Z5, Z1, Z1
	VADDPD Z6, Z2, Z2
	VADDPD Z7, Z3, Z3
	VADDPD Z2, Z0, Z0
	VADDPD Z3, Z1, Z1
	VADDPD Z1, Z0, Z0
	VDIVPD Z0, Z21, Z0  // 1/sum
	MOVQ st-16(SP), DI
	ADDQ SI, DI
	MOVQ R12, CX
	SHLQ $3, CX  // columns in full chunks: 1/sum·e

nmfull:
	TESTQ CX, CX
	JLE   nmtail
	VMULPD  (DI), Z0, Z1
	VMOVUPD Z1, (DI)
	ADDQ    R11, DI
	DECQ    CX
	JMP     nmfull

nmtail:
	MOVQ R15, CX  // the tail chunk's: e·1/sum

nmtailloop:
	VMOVUPD (DI), Z1
	VMULPD  Z0, Z1, Z1
	VMOVUPD Z1, (DI)
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
	SHLQ $3, R9  // v and out row stride
	XORQ R13, R13

atile:
	CMPQ R13, R8
	JGE  done
	MOVQ dv+56(FP), BX  // columns left
	XORQ SI, SI  // column offset in bytes

acol:
	CMPQ BX, $8
	JLE  av1
	LEAQ -8(BX), CX
	CMPQ CX, $8
	JLE  avlanes
	MOVQ $8, CX

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
	LEAQ (AX)(R13*8), AX  // probability of row r0, column j = 0
	MOVQ v+24(FP), DX
	ADDQ SI, DX
	MOVQ R8, CX

av2loop:
	VMOVUPD   (DX), Z18
	VMOVUPD.Z 64(DX), K3, Z19
	VBROADCASTSD 0(AX), Z20
	VFMADD231PD  Z18, Z20, Z0
	VFMADD231PD  Z19, Z20, Z1
	VBROADCASTSD 8(AX), Z21
	VFMADD231PD  Z18, Z21, Z2
	VFMADD231PD  Z19, Z21, Z3
	VBROADCASTSD 16(AX), Z22
	VFMADD231PD  Z18, Z22, Z4
	VFMADD231PD  Z19, Z22, Z5
	VBROADCASTSD 24(AX), Z23
	VFMADD231PD  Z18, Z23, Z6
	VFMADD231PD  Z19, Z23, Z7
	VBROADCASTSD 32(AX), Z24
	VFMADD231PD  Z18, Z24, Z8
	VFMADD231PD  Z19, Z24, Z9
	VBROADCASTSD 40(AX), Z25
	VFMADD231PD  Z18, Z25, Z10
	VFMADD231PD  Z19, Z25, Z11
	VBROADCASTSD 48(AX), Z26
	VFMADD231PD  Z18, Z26, Z12
	VFMADD231PD  Z19, Z26, Z13
	VBROADCASTSD 56(AX), Z27
	VFMADD231PD  Z18, Z27, Z14
	VFMADD231PD  Z19, Z27, Z15
	VBROADCASTSD 64(AX), Z28
	VFMADD231PD  Z18, Z28, Z16
	VFMADD231PD  Z19, Z28, Z17
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
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPD Z2, (DI)
	VMOVUPD Z3, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPD Z4, (DI)
	VMOVUPD Z5, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPD Z6, (DI)
	VMOVUPD Z7, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPD Z10, (DI)
	VMOVUPD Z11, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPD Z12, (DI)
	VMOVUPD Z13, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPD Z14, (DI)
	VMOVUPD Z15, K3, 64(DI)
	DECQ CX
	JZ   av2stored
	ADDQ R9, DI
	VMOVUPD Z16, (DI)
	VMOVUPD Z17, K3, 64(DI)

av2stored:
	ADDQ $128, SI
	SUBQ $16, BX
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
	LEAQ (AX)(R13*8), AX  // probability of row r0, column j = 0
	MOVQ v+24(FP), DX
	ADDQ SI, DX
	MOVQ R8, CX

av1loop:
	VMOVUPD.Z (DX), K3, Z18
	VBROADCASTSD 0(AX), Z20
	VFMADD231PD  Z18, Z20, Z0
	VBROADCASTSD 8(AX), Z21
	VFMADD231PD  Z18, Z21, Z1
	VBROADCASTSD 16(AX), Z22
	VFMADD231PD  Z18, Z22, Z2
	VBROADCASTSD 24(AX), Z23
	VFMADD231PD  Z18, Z23, Z3
	VBROADCASTSD 32(AX), Z24
	VFMADD231PD  Z18, Z24, Z4
	VBROADCASTSD 40(AX), Z25
	VFMADD231PD  Z18, Z25, Z5
	VBROADCASTSD 48(AX), Z26
	VFMADD231PD  Z18, Z26, Z6
	VBROADCASTSD 56(AX), Z27
	VFMADD231PD  Z18, Z27, Z7
	VBROADCASTSD 64(AX), Z28
	VFMADD231PD  Z18, Z28, Z8
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
	VMOVUPD Z0, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPD Z1, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPD Z2, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPD Z3, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPD Z4, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPD Z5, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPD Z6, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPD Z7, K3, (DI)
	DECQ CX
	JZ   av1stored
	ADDQ R9, DI
	VMOVUPD Z8, K3, (DI)

av1stored:
anext:
	ADDQ $9, R13
	JMP  atile

done:
	VZEROUPPER
	RET
