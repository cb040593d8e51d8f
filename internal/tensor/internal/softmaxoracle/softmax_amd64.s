//go:build amd64

// The parent's row softmax kernels, verbatim from gemm_batch{,_f32}_amd64.s
// at the commit before the fused attention kernel (see softmax.go).

#include "textflag.h"

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
