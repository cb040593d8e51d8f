//go:build amd64 && !amd64.v3

// Unfused AVX-512F training kernels: the scalar Go bodies of Adam's element
// update (nn/optim.go), the gradient rescale, maddRows4 and gemmTNRows
// (gemm.go; maddRow is gemmTNRows at one row), eight lanes at a time.
//
// Training must not move a bit when it changes kernels: trained weights are
// pinned by report, checkpoint and snapshot bytes. On amd64 at GOAMD64=v1/v2
// the Go compiler never contracts x*y+z, so each scalar body is a fixed
// sequence of correctly rounded IEEE operations per element, and the kernels
// here issue that same sequence per lane: separate VMULPD and VADDPD (never
// FMA), VDIVPD and VSQRTPD (never a reciprocal estimate), the scalar code's
// association, and no cross-lane reduction. At GOAMD64=v3 the compiler fuses
// the scalar bodies, so this file and its dispatch are built out there.
//
// Commutative operations keep the operand order the compiler emits for the
// scalar body (Go's VOP src2, src1, dst), which decides the payload when two
// different NaNs meet and nothing else.
//
// Every kernel walks 8-wide tiles under K1: all ones for full tiles, the low
// n%8 lanes for the tail, so ragged lengths need no padding and masked-off
// lanes are neither read nor written.

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

// func maddRows4AVX512(o, b0, b1, b2, b3 *float64, n int64, a0, a1, a2, a3 float64)
// o[j] += ((b0[j]*a0 + b1[j]*a1) + b2[j]*a2) + b3[j]*a3.
TEXT ·maddRows4AVX512(SB), NOSPLIT, $0-80
	MOVQ o+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Z0
	VBROADCASTSD a1+56(FP), Z1
	VBROADCASTSD a2+64(FP), Z2
	VBROADCASTSD a3+72(FP), Z3
	XORQ BX, BX  // element index of the current tile
	FULLMASK

row4next:
	CMPQ  CX, $8
	JGE   row4tile
	TESTQ CX, CX
	JLE   row4done
	TAILMASK

row4tile:
	VMOVUPD.Z (SI)(BX*8), K1, Z4
	VMULPD    Z0, Z4, Z4
	VMOVUPD.Z (R8)(BX*8), K1, Z5
	VMULPD    Z1, Z5, Z5
	VADDPD    Z5, Z4, Z4
	VMOVUPD.Z (R9)(BX*8), K1, Z5
	VMULPD    Z2, Z5, Z5
	VADDPD    Z5, Z4, Z4
	VMOVUPD.Z (R10)(BX*8), K1, Z5
	VMULPD    Z3, Z5, Z5
	VADDPD    Z4, Z5, Z5
	VMOVUPD.Z (DI)(BX*8), K1, Z6
	VADDPD    Z6, Z5, Z5
	VMOVUPD   Z5, K1, (DI)(BX*8)
	ADDQ      $8, BX
	SUBQ      $8, CX
	JMP       row4next

row4done:
	VZEROUPPER
	RET

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

// func scaleAVX512(x *float64, n int64, s float64)
// x[i] *= s.
TEXT ·scaleAVX512(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD s+16(FP), Z0
	FULLMASK

scalenext:
	CMPQ  CX, $8
	JGE   scaletile
	TESTQ CX, CX
	JLE   scaledone
	TAILMASK

scaletile:
	VMOVUPD.Z (DI), K1, Z1
	VMULPD    Z0, Z1, Z1
	VMOVUPD   Z1, K1, (DI)
	ADDQ      $64, DI
	SUBQ      $8, CX
	JMP       scalenext

scaledone:
	VZEROUPPER
	RET

// func adamAVX512(p, grad, m, v *float64, n int64, b1, omb1, b2, omb2, bc1, bc2, lr, eps float64)
// Per element, in the scalar loop's order:
//   m = m*b1 + omb1*grad;  v = v*b2 + grad*(omb2*grad)
//   p -= (m/bc1)*lr / (sqrt(v/bc2) + eps)
// Masked-off lanes load zeros, which stay finite through both divisions.
// A tile whose grad, m and v are all +0 bits is left as it is, as the scalar
// loop leaves such an element: the update would store m = v = +0 back and
// subtract (0/bc1)*lr / (0 + eps) = +0 from p. That is every tile of an
// embedding row no sample has touched yet.
TEXT ·adamAVX512(SB), NOSPLIT, $0-104
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
	VBROADCASTSD lr+88(FP), Z22
	VBROADCASTSD eps+96(FP), Z23
	XORQ BX, BX  // element index of the current tile
	FULLMASK

adamnext:
	CMPQ  CX, $8
	JGE   adamtile
	TESTQ CX, CX
	JLE   adamdone
	TAILMASK

adamtile:
	VMOVUPD.Z (SI)(BX*8), K1, Z0  // g
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
	VDIVPD    Z20, Z1, Z1         // mhat = m/bc1
	VDIVPD    Z21, Z3, Z3         // vhat = v/bc2
	VMULPD    Z22, Z1, Z1         // mhat*lr
	VSQRTPD   Z3, Z3
	VADDPD    Z23, Z3, Z3         // sqrt(vhat)+eps
	VDIVPD    Z3, Z1, Z1
	VMOVUPD.Z (DI)(BX*8), K1, Z5
	VSUBPD    Z1, Z5, Z5
	VMOVUPD   Z5, K1, (DI)(BX*8)

adamskip:
	ADDQ $8, BX
	SUBQ $8, CX
	JMP  adamnext

adamdone:
	VZEROUPPER
	RET
