//go:build amd64 && !amd64.v3

// Unfused AVX-512F training kernels: the scalar Go bodies of Adam's element
// update and clip (nn/optim.go), gemmRows (maddPanel's
// maddRows4 and maddRow), gemmTNRows and gemmNTRows' dotRows4 chains
// (gemm.go), and the autograd element loops (addVec, maddVec, axpyVec,
// reluGradVec in ops.go), eight lanes at a time.
//
// Training must not move a bit when it changes kernels: trained weights are
// pinned by report, checkpoint and snapshot bytes. On amd64 at GOAMD64=v1/v2
// the Go compiler never contracts x*y+z, so each scalar body is a fixed
// sequence of correctly rounded IEEE operations per element, and the kernels
// here issue that same sequence per lane: separate VMULPD and VADDPD (never
// FMA), VDIVPD and VSQRTPD, the scalar code's association, and no cross-lane
// reduction. The one FMA and reciprocal arithmetic is Adam's estimate of its
// two bias-correction quotients, each kept only where an exact test proves
// it the correctly rounded quotient (adamAVX512). gemmNTAVX512 puts output
// columns in lanes by transposing 8x8 tiles of B in registers, so each lane
// still runs one dot product's chain in order. Two kernels serve Adam's clip:
// sumSquaresAVX512 is the one reduction in any order, and only feeds an
// error bound that decides whether the ordered sum (sumSquaresSeqAVX512,
// scalar, skipping all-zero tiles) is needed at all. At GOAMD64=v3 the
// compiler fuses the scalar bodies, so this file and its dispatch are built
// out there.
//
// Commutative operations keep the operand order the compiler emits for the
// scalar body (Go's VOP src2, src1, dst), which decides the payload when two
// different NaNs meet and nothing else.
//
// The element kernels walk 8-wide tiles under K1: all ones for full tiles,
// the low n%8 lanes for the tail, so ragged lengths need no padding and
// masked-off lanes are neither read nor written.

#include "textflag.h"

// TAILMASK sets K1 to the low CX lanes (0 < CX < 8).
#define TAILMASK \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX;     \
	KMOVW AX, K1

// FULLMASK sets K1 to all eight lanes.
#define FULLMASK \
	MOVQ  $0xFF, AX; \
	KMOVW AX, K1

// func gemmTNAVX512(out, a, b *float64, m, r, n, rows int64)
// out[i,:] += b[p,:]*a[p,i] for i in [0,rows), p ascending, a[p,i] == +-0
// skipped: gemmTNRows with the loops turned inside out (i, 32-column group, p)
// so an output tile stays in registers across the r accumulations. Per
// element that is still gemmTNRows' sequence of += in ascending p. r >= 1.
TEXT ·gemmTNAVX512(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m+24(FP), R8
	SHLQ $3, R8   // a row stride in bytes
	MOVQ r+32(FP), R9
	MOVQ n+40(FP), R13
	SHLQ $3, R13  // b and out row stride in bytes
	MOVQ rows+48(FP), R11

tnrow:
	TESTQ R11, R11
	JLE   tndone
	MOVQ  n+40(FP), R14  // columns to go in this row
	MOVQ  DI, R15        // out cursor
	MOVQ  DX, BX         // b cursor, row 0

tngroup:
	TESTQ R14, R14
	JLE   tnnextrow

	// Masks of this 32-column group's four tiles (empty past the row's end).
	MOVQ R14, CX
	CMPQ CX, $32
	JLE  tnmask
	MOVQ $32, CX

tnmask:
	MOVQ     $1, AX
	SHLQ     CX, AX
	DECQ     AX
	KMOVW    AX, K1
	KSHIFTRW $8, K1, K2
	SHRQ     $16, AX
	KMOVW    AX, K3
	KSHIFTRW $8, K3, K4

	VMOVUPD.Z (R15), K1, Z0
	VMOVUPD.Z 64(R15), K2, Z1
	VMOVUPD.Z 128(R15), K3, Z2
	VMOVUPD.Z 192(R15), K4, Z3
	MOVQ SI, AX   // &a[p,i]
	MOVQ BX, R12  // &b[p,group]
	MOVQ R9, CX

tnp:
	MOVQ (AX), R10
	SHLQ $1, R10
	JZ   tnskip
	VBROADCASTSD (AX), Z8
	VMOVUPD.Z (R12), K1, Z4
	VMULPD    Z8, Z4, Z4
	VADDPD    Z0, Z4, Z0
	VMOVUPD.Z 64(R12), K2, Z5
	VMULPD    Z8, Z5, Z5
	VADDPD    Z1, Z5, Z1
	VMOVUPD.Z 128(R12), K3, Z6
	VMULPD    Z8, Z6, Z6
	VADDPD    Z2, Z6, Z2
	VMOVUPD.Z 192(R12), K4, Z7
	VMULPD    Z8, Z7, Z7
	VADDPD    Z3, Z7, Z3

tnskip:
	ADDQ R8, AX
	ADDQ R13, R12
	DECQ CX
	JNZ  tnp

	VMOVUPD Z0, K1, (R15)
	VMOVUPD Z1, K2, 64(R15)
	VMOVUPD Z2, K3, 128(R15)
	VMOVUPD Z3, K4, 192(R15)
	ADDQ $256, R15
	ADDQ $256, BX
	SUBQ $32, R14
	JMP  tngroup

tnnextrow:
	ADDQ R13, DI
	ADDQ $8, SI
	DECQ R11
	JMP  tnrow

tndone:
	VZEROUPPER
	RET

// func adamAVX512(p, grad, m, v *float64, n int64, b1, omb1, b2, omb2, bc1, bc2, r1, r1lo, r2, r2lo, lr, eps, scale float64) int64
// Per element, in the scalar loop's order, with g = grad*scale (the clip
// rescale, rounded as a stored rescaled gradient would be; +0 when grad is
// nil, which is what a +0 gradient times scale gives):
//   m = m*b1 + omb1*g;  v = v*b2 + g*(omb2*g)
//   p -= (m/bc1)*lr / (sqrt(v/bc2) + eps)
// A tile whose g, m and v are all +0 bits is left as it is, as the scalar
// loop leaves such an element: the update would store m = v = +0 back and
// subtract (0/bc1)*lr / (0 + eps) = +0 from p. That is every tile of an
// embedding row no sample has touched yet. In other tiles such lanes are
// left out of the quotient tests and of the store to p.
//
// mhat = m/bc1 and vhat = v/bc2 are FMA estimates q = a*r + a*rlo (r + rlo
// is 1/b split in two) that a lane keeps only when a test proves q = RN(a/b).
// A tile with a lane that fails reruns both on VDIVPD (adamslow) and is
// counted in the result. The root and the last division stay on VSQRTPD and
// VDIVPD: the divider runs beside the FMA ports, and estimating those two as
// well made the kernel FMA-bound and slower than this split (measured).
//
// The test, whatever the estimate's quality. Let e be q's exponent and
// h = 2^(e-53), so that a normal q which is not a power of two has its
// neighbours at q ± 2h and RN(x) = q for every |x - q| < h. q passes when
// its significand bits are not all zero (this fails powers of two, ±0 and
// ±Inf) and |fma(-q, b, a)| < B, where B = RD(2^e · RD(b·2⁻⁵³)) is formed
// from q's exponent bits and rounded down, so B <= h·b. A subnormal q gives
// B = 0, a NaN anywhere fails the compare, and a non-positive b gives B <= 0.
// RN is monotone and B is a float, so |ρ| >= h·b would give
// |RN(ρ)| >= RN(B) = B for the exact remainder ρ = a - q·b. A pass therefore
// means |a/b - q| = |ρ|/b < h, and q = RN(a/b).
TEXT ·adamAVX512(SB), NOSPLIT, $0-152
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD b1+40(FP), Z16
	VBROADCASTSD omb1+48(FP), Z17
	VBROADCASTSD b2+56(FP), Z18
	VBROADCASTSD omb2+64(FP), Z19
	VBROADCASTSD bc1+72(FP), Z20
	VBROADCASTSD bc2+80(FP), Z21
	VBROADCASTSD r1+88(FP), Z25
	VBROADCASTSD r1lo+96(FP), Z29
	VBROADCASTSD r2+104(FP), Z26
	VBROADCASTSD r2lo+112(FP), Z30
	VBROADCASTSD lr+120(FP), Z22
	VBROADCASTSD eps+128(FP), Z23
	VBROADCASTSD scale+136(FP), Z24
	VBROADCASTSD adamtwom53<>(SB), Z28
	VMULPD.RD_SAE Z28, Z20, Z27  // RD(bc1·2⁻⁵³)
	VMULPD.RD_SAE Z28, Z21, Z28  // RD(bc2·2⁻⁵³)
	VPBROADCASTQ adamexp<>(SB), Z31
	XORQ BX, BX   // element index of the current tile
	XORQ R10, R10 // tiles that fell back
	FULLMASK

adamnext:
	CMPQ  CX, $8
	JGE   adamtile
	TESTQ CX, CX
	JLE   adamdone
	TAILMASK

adamtile:
	VPXORQ    Z0, Z0, Z0
	TESTQ     SI, SI
	JZ        adamgrad
	VMOVUPD.Z (SI)(BX*8), K1, Z0  // grad
	VMULPD    Z24, Z0, Z0         // g = grad*scale

adamgrad:
	VMOVUPD.Z (R8)(BX*8), K1, Z1  // m
	VMOVUPD.Z (R9)(BX*8), K1, Z3  // v
	VPORQ     Z0, Z1, Z6
	VPORQ     Z3, Z6, Z6
	VPTESTMQ  Z6, Z6, K2          // lanes with a set bit in g, m or v
	KORTESTW  K2, K2
	JZ        adamskip
	VMULPD    Z16, Z1, Z1         // m*b1
	VMULPD    Z0, Z17, Z2         // omb1*g
	VADDPD    Z1, Z2, Z1
	VMOVUPD   Z1, K1, (R8)(BX*8)
	VMULPD    Z18, Z3, Z3         // v*b2
	VMULPD    Z0, Z19, Z4         // omb2*g
	VMULPD    Z4, Z0, Z4          // g*(omb2*g)
	VADDPD    Z3, Z4, Z3
	VMOVUPD   Z3, K1, (R9)(BX*8)

	// vhat into Z6 and mhat into Z2; K3 collects the lanes whose quotients
	// pass.
	VMULPD        Z30, Z3, Z6    // v*r2lo
	VFMADD231PD   Z26, Z3, Z6    // q = v*r2 + v*r2lo
	VFNMADD231PD  Z21, Z6, Z3    // ρ = v - q*bc2
	VANDPD        Z31, Z6, Z4    // 2^e
	VMULPD.RD_SAE Z28, Z4, Z4    // B
	VANDPD.BCST   adamabs<>(SB), Z3, Z3
	VCMPPD        $0x11, Z4, Z3, K2, K3       // |ρ| < B
	VPTESTMQ.BCST adammant<>(SB), Z6, K3, K3  // not a power of two
	VMULPD        Z29, Z1, Z2
	VFMADD231PD   Z25, Z1, Z2
	VFNMADD231PD  Z20, Z2, Z1
	VANDPD        Z31, Z2, Z4
	VMULPD.RD_SAE Z27, Z4, Z4
	VANDPD.BCST   adamabs<>(SB), Z1, Z1
	VCMPPD        $0x11, Z4, Z1, K3, K3
	VPTESTMQ.BCST adammant<>(SB), Z2, K3, K3
	KXORW         K2, K3, K3
	KORTESTW      K3, K3
	JNZ           adamslow

adamtail:
	VSQRTPD   Z6, Z6
	VADDPD    Z23, Z6, Z6         // sqrt(vhat)+eps
	VMULPD    Z22, Z2, Z2         // mhat*lr
	VDIVPD    Z6, Z2, Z2
	VMOVUPD.Z (DI)(BX*8), K1, Z5
	VSUBPD    Z2, Z5, Z5
	VMOVUPD   Z5, K2, (DI)(BX*8)

adamskip:
	ADDQ $8, BX
	SUBQ $8, CX
	JMP  adamnext

adamslow:
	INCQ      R10
	VMOVUPD.Z (R8)(BX*8), K1, Z2
	VMOVUPD.Z (R9)(BX*8), K1, Z6
	VDIVPD    Z20, Z2, Z2         // mhat = m/bc1
	VDIVPD    Z21, Z6, Z6         // vhat = v/bc2
	JMP       adamtail

adamdone:
	MOVQ R10, ret+144(FP)
	VZEROUPPER
	RET

DATA adamtwom53<>+0(SB)/8, $0x3ca0000000000000 // 2⁻⁵³
GLOBL adamtwom53<>(SB), RODATA, $8
DATA adamexp<>+0(SB)/8, $0x7ff0000000000000
GLOBL adamexp<>(SB), RODATA, $8
DATA adamabs<>+0(SB)/8, $0x7fffffffffffffff
GLOBL adamabs<>(SB), RODATA, $8
DATA adammant<>+0(SB)/8, $0x000fffffffffffff
GLOBL adammant<>(SB), RODATA, $8

// NTLOADT(B0, B4) loads the block's 8x8 tile of B (rows j..j+3 at B0 under
// K1, j+4..j+7 at B4 under K2) and transposes it: Z8+q holds
// b[j..j+7][p+q], step q's eight columns.
#define NTLOADT(B0, B4) \
	VMOVUPD.Z  (B0), K1, Z0;          \
	VMOVUPD.Z  (B0)(R8*1), K1, Z1;    \
	VMOVUPD.Z  (B0)(R8*2), K1, Z2;    \
	VMOVUPD.Z  (B0)(R9*1), K1, Z3;    \
	VMOVUPD.Z  (B4), K2, Z4;          \
	VMOVUPD.Z  (B4)(R8*1), K2, Z5;    \
	VMOVUPD.Z  (B4)(R8*2), K2, Z6;    \
	VMOVUPD.Z  (B4)(R9*1), K2, Z7;    \
	VUNPCKLPD  Z1, Z0, Z8;            \
	VUNPCKHPD  Z1, Z0, Z9;            \
	VUNPCKLPD  Z3, Z2, Z10;           \
	VUNPCKHPD  Z3, Z2, Z11;           \
	VUNPCKLPD  Z5, Z4, Z12;           \
	VUNPCKHPD  Z5, Z4, Z13;           \
	VUNPCKLPD  Z7, Z6, Z14;           \
	VUNPCKHPD  Z7, Z6, Z15;           \
	VSHUFF64X2 $0x88, Z10, Z8, Z0;    \
	VSHUFF64X2 $0xDD, Z10, Z8, Z2;    \
	VSHUFF64X2 $0x88, Z11, Z9, Z1;    \
	VSHUFF64X2 $0xDD, Z11, Z9, Z3;    \
	VSHUFF64X2 $0x88, Z14, Z12, Z4;   \
	VSHUFF64X2 $0xDD, Z14, Z12, Z6;   \
	VSHUFF64X2 $0x88, Z15, Z13, Z5;   \
	VSHUFF64X2 $0xDD, Z15, Z13, Z7;   \
	VSHUFF64X2 $0x88, Z4, Z0, Z8;     \
	VSHUFF64X2 $0xDD, Z4, Z0, Z12;    \
	VSHUFF64X2 $0x88, Z6, Z2, Z10;    \
	VSHUFF64X2 $0xDD, Z6, Z2, Z14;    \
	VSHUFF64X2 $0x88, Z5, Z1, Z9;     \
	VSHUFF64X2 $0xDD, Z5, Z1, Z13;    \
	VSHUFF64X2 $0x88, Z7, Z3, Z11;    \
	VSHUFF64X2 $0xDD, Z7, Z3, Z15

// NTNEXT moves the cursors to the next whole block.
#define NTNEXT \
	ADDQ   $64, AX;      \
	ADDQ   $64, R14;     \
	ADDQ   $64, BX;      \
	ADDQ   $64, CX;      \
	KXNORW K1, K1, K1;   \
	KMOVW  K4, K2;       \
	XORQ   R12, R12

// NTMAC1 is step q of one A row: acc += b[j..j+7][p+q]*a[p+q].
#define NTMAC1(off, C, acc) \
	VMULPD.BCST off(AX), C, Z31; \
	VADDPD      Z31, acc, acc

// NTMAC9 is step q of nine A rows (rows 4..7 from R14, row 8 at 8 strides).
#define NTMAC9(off, C) \
	VMULPD.BCST off(AX), C, Z31;          \
	VADDPD      Z31, Z16, Z16;            \
	VMULPD.BCST off(AX)(R8*1), C, Z30;    \
	VADDPD      Z30, Z17, Z17;            \
	VMULPD.BCST off(AX)(R8*2), C, Z29;    \
	VADDPD      Z29, Z18, Z18;            \
	VMULPD.BCST off(AX)(R9*1), C, Z28;    \
	VADDPD      Z28, Z19, Z19;            \
	VMULPD.BCST off(R14), C, Z31;         \
	VADDPD      Z31, Z20, Z20;            \
	VMULPD.BCST off(R14)(R8*1), C, Z30;   \
	VADDPD      Z30, Z21, Z21;            \
	VMULPD.BCST off(R14)(R8*2), C, Z29;   \
	VADDPD      Z29, Z22, Z22;            \
	VMULPD.BCST off(R14)(R9*1), C, Z28;   \
	VADDPD      Z28, Z23, Z23;            \
	VMULPD.BCST off(AX)(R8*8), C, Z31;    \
	VADDPD      Z31, Z24, Z24

// NTSTORE adds a finished dot product row into out: out = acc + out.
#define NTSTORE(addr, acc, T) \
	VMOVUPD.Z addr, K3, T;  \
	VADDPD    T, acc, T;    \
	VMOVUPD   T, K3, addr

// func gemmNTAVX512(out, a, b *float64, k, n, cols, rows int64)
// out[i][j] += dot(a[i,:], b[j,:]) for i < rows, j < cols (a multiple of 4),
// with dotRows4's chain per output: from +0, add b[j][p]*a[p] for p ascending
// (VMULPD then VADDPD, no zero skipped), then add the sum into out. Lanes are
// eight output columns; each block of eight p transposes an 8x8 tile of B
// in registers and serves nine A rows (a row block), or one (the rows left
// over). k >= 1; a and b rows are k long, out rows n.
TEXT ·gemmNTAVX512(SB), NOSPLIT, $0-56

// NTSETUP starts column group j = R13 of gemmNTAVX512 and the first block
// of its reduced dimension. K3: the group's output lanes (8, or 4 at the
// end); K4: all lanes if B rows j+4..j+7 exist, else none. R12: the step the
// first block enters at, (8 - k%8) % 8, so that a k%8-long first block sits
// in the top lanes of a block that starts before p = 0 (its masked-off lanes
// are never read) and every later block is whole. K1/K2: that first block's
// lanes of B rows j..j+3 / j+4..j+7. R15: blocks. BX/CX: B rows j and j+4,
// AX/R14: A rows 0 and 4 of the row block, all at the first block's start.
#define NTSETUP \
	MOVQ    cols+40(FP), CX;  \
	SUBQ    R13, CX;          \
	MOVQ    $8, AX;           \
	CMPQ    CX, AX;           \
	CMOVQGT AX, CX;           \
	MOVQ    $1, AX;           \
	SHLQ    CX, AX;           \
	DECQ    AX;               \
	KMOVW   AX, K3;           \
	SHRQ    $3, CX;           \
	NEGQ    CX;               \
	KMOVW   CX, K4;           \
	MOVQ    k+24(FP), R12;    \
	NEGQ    R12;              \
	ANDQ    $7, R12;          \
	MOVQ    $0xFF, AX;        \
	MOVQ    R12, CX;          \
	SHLQ    CX, AX;           \
	KMOVW   AX, K1;           \
	KANDW   K1, K4, K2;       \
	MOVQ    k+24(FP), R15;    \
	ADDQ    $7, R15;          \
	SHRQ    $3, R15;          \
	MOVQ    R13, BX;          \
	IMULQ   R8, BX;           \
	ADDQ    b+16(FP), BX;     \
	MOVQ    R12, AX;          \
	SHLQ    $3, AX;           \
	NEGQ    AX;               \
	ADDQ    AX, BX;           \
	ADDQ    SI, AX;           \
	LEAQ    (BX)(R8*4), CX;   \
	LEAQ    (AX)(R8*4), R14

	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ k+24(FP), R8
	SHLQ $3, R8            // a and b row stride
	LEAQ (R8)(R8*2), R9    // three strides
	MOVQ n+32(FP), R10
	SHLQ $3, R10           // out row stride
	MOVQ rows+48(FP), R11

nt9rows:
	CMPQ R11, $9
	JLT  nt1rows
	XORQ R13, R13

nt9group:
	NTSETUP
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24

nt9block:
	NTLOADT(BX, CX)
	TESTQ R12, R12
	JZ    nt9q0
	CMPQ  R12, $2
	JLT   nt9q1
	JEQ   nt9q2
	CMPQ  R12, $4
	JLT   nt9q3
	JEQ   nt9q4
	CMPQ  R12, $6
	JLT   nt9q5
	JEQ   nt9q6
	JMP   nt9q7

nt9q0:
	NTMAC9(0, Z8)
nt9q1:
	NTMAC9(8, Z9)
nt9q2:
	NTMAC9(16, Z10)
nt9q3:
	NTMAC9(24, Z11)
nt9q4:
	NTMAC9(32, Z12)
nt9q5:
	NTMAC9(40, Z13)
nt9q6:
	NTMAC9(48, Z14)
nt9q7:
	NTMAC9(56, Z15)
	NTNEXT
	DECQ R15
	JNZ  nt9block

	LEAQ (DI)(R13*8), AX
	LEAQ (R10)(R10*2), R12
	LEAQ (AX)(R10*4), R14
	NTSTORE((AX), Z16, Z0)
	NTSTORE((AX)(R10*1), Z17, Z1)
	NTSTORE((AX)(R10*2), Z18, Z2)
	NTSTORE((AX)(R12*1), Z19, Z3)
	NTSTORE((R14), Z20, Z4)
	NTSTORE((R14)(R10*1), Z21, Z5)
	NTSTORE((R14)(R10*2), Z22, Z6)
	NTSTORE((R14)(R12*1), Z23, Z7)
	NTSTORE((AX)(R10*8), Z24, Z8)
	ADDQ $8, R13
	CMPQ R13, cols+40(FP)
	JLT  nt9group

	LEAQ (SI)(R8*8), SI
	ADDQ R8, SI
	LEAQ (DI)(R10*8), DI
	ADDQ R10, DI
	SUBQ $9, R11
	JMP  nt9rows

nt1rows:
	TESTQ R11, R11
	JLE   ntdone
	XORQ  R13, R13

	// One A row reduces two whole column groups, j and j+8, side by side,
	// so two independent add chains run (5-8 % faster than one; the
	// transposes' shuffles bound it). Group j+8's B rows run from DX and
	// R14 (R14 is free: one A row needs no row-4 cursor), and its tile
	// loads under the same K1/K2, both groups being whole.
nt1pair:
	LEAQ 16(R13), AX
	CMPQ AX, cols+40(FP)
	JGT  nt1group
	NTSETUP
	LEAQ   (BX)(R8*8), DX
	LEAQ   (CX)(R8*8), R14
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17

nt1pblock:
	NTLOADT(BX, CX)
	TESTQ R12, R12
	JZ    nt1aq0
	CMPQ  R12, $2
	JLT   nt1aq1
	JEQ   nt1aq2
	CMPQ  R12, $4
	JLT   nt1aq3
	JEQ   nt1aq4
	CMPQ  R12, $6
	JLT   nt1aq5
	JEQ   nt1aq6
	JMP   nt1aq7

nt1aq0:
	NTMAC1(0, Z8, Z16)
nt1aq1:
	NTMAC1(8, Z9, Z16)
nt1aq2:
	NTMAC1(16, Z10, Z16)
nt1aq3:
	NTMAC1(24, Z11, Z16)
nt1aq4:
	NTMAC1(32, Z12, Z16)
nt1aq5:
	NTMAC1(40, Z13, Z16)
nt1aq6:
	NTMAC1(48, Z14, Z16)
nt1aq7:
	NTMAC1(56, Z15, Z16)
	NTLOADT(DX, R14)
	TESTQ R12, R12
	JZ    nt1bq0
	CMPQ  R12, $2
	JLT   nt1bq1
	JEQ   nt1bq2
	CMPQ  R12, $4
	JLT   nt1bq3
	JEQ   nt1bq4
	CMPQ  R12, $6
	JLT   nt1bq5
	JEQ   nt1bq6
	JMP   nt1bq7

nt1bq0:
	NTMAC1(0, Z8, Z17)
nt1bq1:
	NTMAC1(8, Z9, Z17)
nt1bq2:
	NTMAC1(16, Z10, Z17)
nt1bq3:
	NTMAC1(24, Z11, Z17)
nt1bq4:
	NTMAC1(32, Z12, Z17)
nt1bq5:
	NTMAC1(40, Z13, Z17)
nt1bq6:
	NTMAC1(48, Z14, Z17)
nt1bq7:
	NTMAC1(56, Z15, Z17)
	ADDQ   $64, AX
	ADDQ   $64, BX
	ADDQ   $64, CX
	ADDQ   $64, DX
	ADDQ   $64, R14
	KXNORW K1, K1, K1
	KMOVW  K4, K2
	XORQ   R12, R12
	DECQ   R15
	JNZ    nt1pblock

	LEAQ (DI)(R13*8), AX
	NTSTORE((AX), Z16, Z0)
	NTSTORE(64(AX), Z17, Z1)
	ADDQ $16, R13
	JMP  nt1pair

nt1group:
	CMPQ R13, cols+40(FP)
	JGE  nt1next
	NTSETUP
	VPXORQ Z16, Z16, Z16

nt1block:
	NTLOADT(BX, CX)
	TESTQ R12, R12
	JZ    nt1q0
	CMPQ  R12, $2
	JLT   nt1q1
	JEQ   nt1q2
	CMPQ  R12, $4
	JLT   nt1q3
	JEQ   nt1q4
	CMPQ  R12, $6
	JLT   nt1q5
	JEQ   nt1q6
	JMP   nt1q7

nt1q0:
	NTMAC1(0, Z8, Z16)
nt1q1:
	NTMAC1(8, Z9, Z16)
nt1q2:
	NTMAC1(16, Z10, Z16)
nt1q3:
	NTMAC1(24, Z11, Z16)
nt1q4:
	NTMAC1(32, Z12, Z16)
nt1q5:
	NTMAC1(40, Z13, Z16)
nt1q6:
	NTMAC1(48, Z14, Z16)
nt1q7:
	NTMAC1(56, Z15, Z16)
	NTNEXT
	DECQ R15
	JNZ  nt1block

	LEAQ (DI)(R13*8), AX
	NTSTORE((AX), Z16, Z0)
	ADDQ $8, R13
	JMP  nt1group

nt1next:
	ADDQ R8, SI
	ADDQ R10, DI
	DECQ R11
	JMP  nt1rows

ntdone:
	VZEROUPPER
	RET

// func sumSquaresAVX512(x *float64, n int64) float64
// Σ x[i]*x[i] in no particular order: four accumulators of eight lanes, then
// a tree. Only Adam's clip test reads it, through a rounding-error bound.
TEXT ·sumSquaresAVX512(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

sq32:
	CMPQ   CX, $32
	JLT    sq8
	VMOVUPD (DI), Z4
	VMOVUPD 64(DI), Z5
	VMOVUPD 128(DI), Z6
	VMOVUPD 192(DI), Z7
	VMULPD Z4, Z4, Z4
	VMULPD Z5, Z5, Z5
	VMULPD Z6, Z6, Z6
	VMULPD Z7, Z7, Z7
	VADDPD Z4, Z0, Z0
	VADDPD Z5, Z1, Z1
	VADDPD Z6, Z2, Z2
	VADDPD Z7, Z3, Z3
	ADDQ   $256, DI
	SUBQ   $32, CX
	JMP    sq32

sq8:
	FULLMASK

sq8next:
	CMPQ  CX, $8
	JGE   sq8tile
	TESTQ CX, CX
	JLE   sqsum
	TAILMASK

sq8tile:
	VMOVUPD.Z (DI), K1, Z4
	VMULPD    Z4, Z4, Z4
	VADDPD    Z4, Z0, Z0
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       sq8next

sqsum:
	VADDPD       Z1, Z0, Z0
	VADDPD       Z3, Z2, Z2
	VADDPD       Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0
	VZEROUPPER
	MOVSD        X0, ret+16(FP)
	RET

// SEQSQ adds the square of the value at off(DI) to the total in X0.
#define SEQSQ(off) \
	MOVSD off(DI), X1; \
	MULSD X1, X1;      \
	ADDSD X1, X0

// func sumSquaresSeqAVX512(total float64, x *float64, n int64) float64
// total += x[i]*x[i] for i ascending (Adam's clip loop), skipping each
// eight-value tile whose bits are all zero: its squares are +0, and adding
// +0 to a total that is +0, positive, +Inf or NaN leaves its bits. The chain
// of adds is the whole cost, so this kernel issues no vector instruction: a
// 512-bit one would drop the core to its AVX-512 clock, which halves a
// latency-bound loop (measured).
TEXT ·sumSquaresSeqAVX512(SB), NOSPLIT, $0-32
	MOVSD total+0(FP), X0
	MOVQ  x+8(FP), DI
	MOVQ  n+16(FP), CX

seqnext:
	CMPQ CX, $8
	JLT  seqtail
	MOVQ (DI), AX
	ORQ  8(DI), AX
	ORQ  16(DI), AX
	ORQ  24(DI), AX
	ORQ  32(DI), AX
	ORQ  40(DI), AX
	ORQ  48(DI), AX
	ORQ  56(DI), AX
	JZ   seqskip
	SEQSQ(0)
	SEQSQ(8)
	SEQSQ(16)
	SEQSQ(24)
	SEQSQ(32)
	SEQSQ(40)
	SEQSQ(48)
	SEQSQ(56)

seqskip:
	ADDQ $64, DI
	SUBQ $8, CX
	JMP  seqnext

seqtail:
	TESTQ CX, CX
	JLE   seqdone
	SEQSQ(0)
	ADDQ  $8, DI
	DECQ  CX
	JMP   seqtail

seqdone:
	MOVSD X0, ret+24(FP)
	RET

// The autograd element loops (ops.go, norm.go). Per lane, each runs its Go
// body's one or two operations in that body's operand order.

// func addVecAVX512(o, x, y *float64, n int64)
// o[i] = x[i] + y[i]; o may be x.
TEXT ·addVecAVX512(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX
	FULLMASK

vaddnext:
	CMPQ  CX, $8
	JGE   vaddtile
	TESTQ CX, CX
	JLE   vadddone
	TAILMASK

vaddtile:
	VMOVUPD.Z (SI)(BX*8), K1, Z0
	VMOVUPD.Z (DX)(BX*8), K1, Z1
	VADDPD    Z1, Z0, Z0
	VMOVUPD   Z0, K1, (DI)(BX*8)
	ADDQ      $8, BX
	SUBQ      $8, CX
	JMP       vaddnext

vadddone:
	VZEROUPPER
	RET

// func maddVecAVX512(o, x, y *float64, n int64)
// o[i] += x[i]*y[i], summed as (x*y) + o.
TEXT ·maddVecAVX512(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX
	FULLMASK

vmaddnext:
	CMPQ  CX, $8
	JGE   vmaddtile
	TESTQ CX, CX
	JLE   vmadddone
	TAILMASK

vmaddtile:
	VMOVUPD.Z (SI)(BX*8), K1, Z0
	VMOVUPD.Z (DX)(BX*8), K1, Z1
	VMULPD    Z1, Z0, Z0
	VMOVUPD.Z (DI)(BX*8), K1, Z2
	VADDPD    Z2, Z0, Z0
	VMOVUPD   Z0, K1, (DI)(BX*8)
	ADDQ      $8, BX
	SUBQ      $8, CX
	JMP       vmaddnext

vmadddone:
	VZEROUPPER
	RET

// func axpyVecAVX512(o, x *float64, n int64, s float64)
// o[i] += x[i]*s, summed as o + (x*s).
TEXT ·axpyVecAVX512(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD s+24(FP), Z3
	XORQ BX, BX
	FULLMASK

vaxpynext:
	CMPQ  CX, $8
	JGE   vaxpytile
	TESTQ CX, CX
	JLE   vaxpydone
	TAILMASK

vaxpytile:
	VMOVUPD.Z (SI)(BX*8), K1, Z0
	VMULPD    Z3, Z0, Z0
	VMOVUPD.Z (DI)(BX*8), K1, Z2
	VADDPD    Z0, Z2, Z2
	VMOVUPD   Z2, K1, (DI)(BX*8)
	ADDQ      $8, BX
	SUBQ      $8, CX
	JMP       vaxpynext

vaxpydone:
	VZEROUPPER
	RET

// func reluGradVecAVX512(o, x, y *float64, n int64)
// o[i] += x[i] where y[i] > 0 (false on NaN), summed as o + x; other lanes
// are not written.
TEXT ·reluGradVecAVX512(SB), NOSPLIT, $0-32
	MOVQ   o+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   y+16(FP), DX
	MOVQ   n+24(FP), CX
	VPXORQ Z3, Z3, Z3
	XORQ   BX, BX
	FULLMASK

vrelunext:
	CMPQ  CX, $8
	JGE   vrelutile
	TESTQ CX, CX
	JLE   vreludone
	TAILMASK

vrelutile:
	VMOVUPD.Z (DX)(BX*8), K1, Z1
	VCMPPD    $0x1e, Z3, Z1, K1, K2  // y > 0, false on NaN
	VMOVUPD.Z (SI)(BX*8), K2, Z0
	VMOVUPD.Z (DI)(BX*8), K2, Z2
	VADDPD    Z0, Z2, Z2
	VMOVUPD   Z2, K2, (DI)(BX*8)
	ADDQ      $8, BX
	SUBQ      $8, CX
	JMP       vrelunext

vreludone:
	VZEROUPPER
	RET

// GRTILE4 is maddRows4's body on output tile O (offset off, mask K):
// O = (((b0*a0 + b1*a1) + b2*a2) + b3*a3) + O, b rows at R12 + 0..3 strides,
// a0..a3 broadcast in Z8..Z11.
#define GRTILE4(off, K, O) \
	VMOVUPD.Z off(R12), K, Z12;         \
	VMULPD    Z8, Z12, Z12;             \
	VMOVUPD.Z off(R12)(R13*1), K, Z13;  \
	VMULPD    Z9, Z13, Z13;             \
	VADDPD    Z13, Z12, Z12;            \
	VMOVUPD.Z off(R12)(R13*2), K, Z13;  \
	VMULPD    Z10, Z13, Z13;            \
	VADDPD    Z13, Z12, Z12;            \
	VMOVUPD.Z off(R12)(R10*1), K, Z13;  \
	VMULPD    Z11, Z13, Z13;            \
	VADDPD    Z12, Z13, Z13;            \
	VADDPD    O, Z13, O

// GRTILE1 is maddRow's body on tile O: O = b*a + O, b row at R12, a
// broadcast in Z8.
#define GRTILE1(off, K, O) \
	VMOVUPD.Z off(R12), K, Z12; \
	VMULPD    Z8, Z12, Z12;     \
	VADDPD    O, Z12, O

// func gemmRowsAVX512(out, a, b *float64, k, n, rows int64)
// gemmRows' body: out[i,:] += a[i,:] @ b for rows output rows, each row
// maddPanel's sequence — blocks of four p in ascending order through
// maddRows4's association, a block whose four a values are all ±0 skipped,
// then the k%4 remaining p one at a time through maddRow's, a ±0 a value
// skipped — on 32-column groups of the row held in registers across all p.
// k >= 1, n >= 1.
TEXT ·gemmRowsAVX512(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R13
	SHLQ $3, R13           // b and out row stride
	LEAQ (R13)(R13*2), R10 // three strides
	MOVQ rows+40(FP), R11

grrow:
	TESTQ R11, R11
	JLE   grdone
	MOVQ  n+32(FP), R14 // columns to go in this row
	MOVQ  DI, R15       // out cursor
	MOVQ  DX, BX        // b cursor, row 0

grgroup:
	TESTQ R14, R14
	JLE   grnextrow

	// Masks of this 32-column group's four tiles (empty past the row's end).
	MOVQ R14, CX
	CMPQ CX, $32
	JLE  grmask
	MOVQ $32, CX

grmask:
	MOVQ     $1, AX
	SHLQ     CX, AX
	DECQ     AX
	KMOVW    AX, K1
	KSHIFTRW $8, K1, K2
	SHRQ     $16, AX
	KMOVW    AX, K3
	KSHIFTRW $8, K3, K4

	VMOVUPD.Z (R15), K1, Z0
	VMOVUPD.Z 64(R15), K2, Z1
	VMOVUPD.Z 128(R15), K3, Z2
	VMOVUPD.Z 192(R15), K4, Z3
	MOVQ SI, AX   // &a[i,p]
	MOVQ BX, R12  // &b[p,group]
	MOVQ R8, CX   // p to go

grblock:
	CMPQ CX, $4
	JLT  grrem
	MOVQ (AX), R9
	ORQ  8(AX), R9
	ORQ  16(AX), R9
	ORQ  24(AX), R9
	SHLQ $1, R9
	JZ   grskip4  // a0..a3 all ±0
	VBROADCASTSD (AX), Z8
	VBROADCASTSD 8(AX), Z9
	VBROADCASTSD 16(AX), Z10
	VBROADCASTSD 24(AX), Z11
	GRTILE4(0, K1, Z0)
	GRTILE4(64, K2, Z1)
	GRTILE4(128, K3, Z2)
	GRTILE4(192, K4, Z3)

grskip4:
	ADDQ $32, AX
	LEAQ (R12)(R13*4), R12
	SUBQ $4, CX
	JMP  grblock

grrem:
	TESTQ CX, CX
	JLE   grstore
	MOVQ  (AX), R9
	SHLQ  $1, R9
	JZ    grskip1 // a is ±0
	VBROADCASTSD (AX), Z8
	GRTILE1(0, K1, Z0)
	GRTILE1(64, K2, Z1)
	GRTILE1(128, K3, Z2)
	GRTILE1(192, K4, Z3)

grskip1:
	ADDQ $8, AX
	ADDQ R13, R12
	DECQ CX
	JMP  grrem

grstore:
	VMOVUPD Z0, K1, (R15)
	VMOVUPD Z1, K2, 64(R15)
	VMOVUPD Z2, K3, 128(R15)
	VMOVUPD Z3, K4, 192(R15)
	ADDQ $256, R15
	ADDQ $256, BX
	SUBQ $32, R14
	JMP  grgroup

grnextrow:
	ADDQ R13, DI
	LEAQ (SI)(R8*8), SI
	DECQ R11
	JMP  grrow

grdone:
	VZEROUPPER
	RET
