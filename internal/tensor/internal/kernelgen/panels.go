package kernelgen

import "fmt"

// The panel kernels compute out = seed + a @ b for a few consecutive rows of
// a row-major activation block against one shared weight panel b. The seed is
// where each accumulator tile starts: the rows of out itself (accumulate), one
// bias row under every row (seed stride 0), or +0 (no seed). Every kernel
// gives an output element the same thing, its own chain of FMAs over
// ascending p on the seeded value, with the operands in the same positions
// (accumulator, a, b: which NaN of two an FMA keeps goes by position); a tile
// only decides which elements share a pass, so no tiling or batch
// composition can move a bit.

// panel4 emits fmaPanel4Asm: four rows, or two (rows 2,3 alias rows 0,1 and
// store the same values), in tiles of two zmm of columns, masked on a ragged
// last tile.
func panel4(o *emitter, d dtype) {
	w := d.lanes
	o.e("// func fmaPanel4%sAsm(out, a, b, seed *%s, k, n, seedStride, rows int64)", d.suffix, d.ty)
	o.e("TEXT ·fmaPanel4%sAsm(SB), NOSPLIT, $0-64", d.suffix)
	o.e("\tMOVQ out+0(FP), DI")
	o.e("\tMOVQ a+8(FP), SI")
	o.e("\tMOVQ b+16(FP), R14")
	o.e("\tMOVQ k+32(FP), R8")
	o.e("\tMOVQ n+40(FP), R9")
	o.e("\tMOVQ R8, R10")
	o.e("\tSHLQ $%d, R10  // a row stride in bytes", d.shift)
	o.e("\tMOVQ R9, R11")
	o.e("\tSHLQ $%d, R11  // b/out row stride in bytes", d.shift)
	o.e("\tMOVQ R9, R15  // columns remaining")
	o.e("")
	o.e("\t// Byte offsets of the second row pair in a (R9) and out (R13): two row")
	o.e("\t// strides for rows = 4, zero for rows = 2 so rows 2,3 alias rows 0,1.")
	o.e("\tXORQ R9, R9")
	o.e("\tXORQ R13, R13")
	o.e("\tCMPQ rows+56(FP), $4")
	o.e("\tJNE  tile4")
	o.e("\tLEAQ (R10)(R10*1), R9")
	o.e("\tLEAQ (R11)(R11*1), R13")
	o.e("")
	o.e("tile4:")
	o.e("\tTESTQ R15, R15")
	o.e("\tJLE   done4")
	o.e("\tMOVQ R15, CX")
	o.e("\tCMPQ CX, $%d", 2*w)
	o.e("\tJLE  lanes4")
	o.e("\tMOVQ $%d, CX", 2*w)
	o.e("")
	o.e("lanes4:  // K2: the first register's lanes, K3 the second's")
	o.e("\tMOVQ  $1, AX")
	o.e("\tSHLQ  CX, AX")
	o.e("\tDECQ  AX")
	o.e("\tMOVQ  AX, BX")
	o.e("\tANDQ  $%#x, BX", 1<<w-1)
	o.e("\tKMOVW BX, K2")
	o.e("\tSHRQ  $%d, AX", w)
	o.e("\tKMOVW AX, K3")
	o.e("\tMOVQ  seed+24(FP), BX")
	o.e("\tTESTQ BX, BX")
	o.e("\tJNZ   seed4")
	zero(o, 0, 8)
	o.e("\tJMP    acc4")
	o.e("")
	o.e("seed4:")
	o.e("\tSUBQ    out+0(FP), BX")
	o.e("\tADDQ    DI, BX  // row 0's seed under this tile")
	o.e("\tMOVQ    seedStride+48(FP), CX")
	o.e("\tSHLQ    $%d, CX", d.shift)
	o.e("\tLEAQ    (BX)(CX*2), R12")
	o.e("\tTESTQ   R13, R13")
	o.e("\tCMOVQEQ BX, R12  // rows 2,3's seed")
	for i, a := range []string{"(BX)", "(BX)(CX*1)", "(R12)", "(R12)(CX*1)"} {
		o.e("\t%s.Z %s, K2, Z%d", d.mov, a, 2*i)
		o.e("\t%s.Z 64%s, K3, Z%d", d.mov, a, 2*i+1)
	}
	o.e("")
	o.e("acc4:")
	o.e("\tMOVQ SI, DX   // a cursor, row 0")
	o.e("\tMOVQ R14, AX  // b cursor, current tile")
	o.e("\tMOVQ R8, CX")
	o.e("")
	o.e("kloop4:")
	o.e("\tTESTQ CX, CX")
	o.e("\tJLE   kdone4")
	o.e("\t%s.Z (AX), K2, Z8", d.mov)
	o.e("\t%s.Z 64(AX), K3, Z9", d.mov)
	o.e("\tLEAQ      (DX)(R9*1), R12")
	for i, a := range []string{"(DX)", "(DX)(R10*1)", "(R12)", "(R12)(R10*1)"} {
		o.e("\t%s %s, Z%d", d.bcast, a, 10+i)
		o.e("\tVFMADD231%s  Z8, Z%d, Z%d", d.p, 10+i, 2*i)
		o.e("\tVFMADD231%s  Z9, Z%d, Z%d", d.p, 10+i, 2*i+1)
	}
	o.e("\tADDQ $%d, DX", d.size)
	o.e("\tADDQ R11, AX")
	o.e("\tDECQ CX")
	o.e("\tJMP  kloop4")
	o.e("")
	o.e("kdone4:")
	o.e("\tLEAQ    (DI)(R13*1), BX")
	for i, a := range []string{"(DI)", "(DI)(R11*1)", "(BX)", "(BX)(R11*1)"} {
		o.e("\t%s Z%d, K2, %s", d.mov, 2*i, a)
		o.e("\t%s Z%d, K3, 64%s", d.mov, 2*i+1, a)
	}
	o.e("\tADDQ $128, DI")
	o.e("\tADDQ $128, R14")
	o.e("\tSUBQ $%d, R15", 2*w)
	o.e("\tJMP  tile4")
	o.e("")
	o.e("done4:")
	o.e("\tVZEROUPPER")
	o.e("\tRET")
	o.e("")
}

// panel1 emits fmaPanel1Asm, the one-row kernel (MLP heads, LSTM steps). One
// row's FMA chains must fill two pipes of four-cycle latency, so it walks b in
// tiles of eight registers, unmasked, b as the FMA's memory operand, while a
// full one fits, then in masked tiles of four.
func panel1(o *emitter, d dtype) {
	w := d.lanes
	o.e("// func fmaPanel1%sAsm(out, a, b, seed *%s, k, n int64)", d.suffix, d.ty)
	o.e("TEXT ·fmaPanel1%sAsm(SB), NOSPLIT, $0-48", d.suffix)
	o.e("\tMOVQ out+0(FP), DI")
	o.e("\tMOVQ a+8(FP), SI")
	o.e("\tMOVQ b+16(FP), R14")
	o.e("\tMOVQ k+32(FP), R8")
	o.e("\tMOVQ n+40(FP), R9")
	o.e("\tMOVQ R9, R11")
	o.e("\tSHLQ $%d, R11", d.shift)
	o.e("\tMOVQ R9, R15")
	o.e("")
	o.e("tile8:")
	o.e("\tCMPQ R15, $%d", 8*w)
	o.e("\tJLT  tile1")
	o.e("\tMOVQ  seed+24(FP), BX")
	o.e("\tTESTQ BX, BX")
	o.e("\tJNZ   seed8")
	zero(o, 0, 8)
	o.e("\tJMP    acc8")
	o.e("")
	o.e("seed8:")
	o.e("\tSUBQ    out+0(FP), BX")
	o.e("\tADDQ    DI, BX  // the seed under this tile")
	for i := 0; i < 8; i++ {
		o.e("\t%s %s, Z%d", d.mov, disp(64*i, "(BX)"), i)
	}
	o.e("")
	o.e("acc8:")
	o.e("\tMOVQ SI, DX")
	o.e("\tMOVQ R14, AX")
	o.e("\tMOVQ R8, CX")
	o.e("")
	o.e("kloop8:")
	o.e("\tTESTQ CX, CX")
	o.e("\tJLE   kdone8")
	o.e("\t%s (DX), Z12", d.bcast)
	for i := 0; i < 8; i++ {
		o.e("\tVFMADD231%s  %s, Z12, Z%d", d.p, disp(64*i, "(AX)"), i)
	}
	o.e("\tADDQ $%d, DX", d.size)
	o.e("\tADDQ R11, AX")
	o.e("\tDECQ CX")
	o.e("\tJMP  kloop8")
	o.e("")
	o.e("kdone8:")
	for i := 0; i < 8; i++ {
		o.e("\t%s Z%d, %s", d.mov, i, disp(64*i, "(DI)"))
	}
	o.e("\tADDQ $512, DI")
	o.e("\tADDQ $512, R14")
	o.e("\tSUBQ $%d, R15", 8*w)
	o.e("\tJMP  tile8")
	o.e("")
	o.e("tile1:")
	o.e("\tTESTQ R15, R15")
	o.e("\tJLE   done1")
	o.e("\tMOVQ $-1, AX")
	o.e("\tCMPQ R15, $%d", 4*w)
	o.e("\tJGE  lanes1")
	o.e("\tMOVQ $1, AX")
	o.e("\tMOVQ R15, CX")
	o.e("\tSHLQ CX, AX")
	o.e("\tDECQ AX")
	o.e("")
	o.e("lanes1:  // K2..K5, a register's lanes each")
	for k := 2; k <= 5; k++ {
		switch {
		case w == 16:
			o.e("\tKMOVW AX, K%d", k)
		case k < 5: // eight-lane masks are cut to their byte
			o.e("\tMOVQ  AX, BX")
			o.e("\tANDQ  $0xff, BX")
			o.e("\tKMOVW BX, K%d", k)
		default:
			o.e("\tANDQ  $0xff, AX")
			o.e("\tKMOVW AX, K%d", k)
		}
		if k < 5 {
			o.e("\tSHRQ  $%d, AX", w)
		}
	}
	o.e("\tMOVQ  seed+24(FP), BX")
	o.e("\tTESTQ BX, BX")
	o.e("\tJNZ   seed1")
	zero(o, 0, 4)
	o.e("\tJMP    acc1")
	o.e("")
	o.e("seed1:")
	o.e("\tSUBQ      out+0(FP), BX")
	o.e("\tADDQ      DI, BX")
	for i := 0; i < 4; i++ {
		o.e("\t%s.Z %s, K%d, Z%d", d.mov, disp(64*i, "(BX)"), 2+i, i)
	}
	o.e("")
	o.e("acc1:")
	o.e("\tMOVQ SI, DX")
	o.e("\tMOVQ R14, AX")
	o.e("\tMOVQ R8, CX")
	o.e("")
	o.e("kloop1:")
	o.e("\tTESTQ CX, CX")
	o.e("\tJLE   kdone1")
	for i := 0; i < 4; i++ {
		o.e("\t%s.Z %s, K%d, Z%d", d.mov, disp(64*i, "(AX)"), 2+i, 8+i)
	}
	o.e("\t%s (DX), Z12", d.bcast)
	for i := 0; i < 4; i++ {
		o.e("\tVFMADD231%s  Z%d, Z12, Z%d", d.p, 8+i, i)
	}
	o.e("\tADDQ $%d, DX", d.size)
	o.e("\tADDQ R11, AX")
	o.e("\tDECQ CX")
	o.e("\tJMP  kloop1")
	o.e("")
	o.e("kdone1:")
	for i := 0; i < 4; i++ {
		o.e("\t%s Z%d, K%d, %s", d.mov, i, 2+i, disp(64*i, "(DI)"))
	}
	o.e("\tADDQ $256, DI")
	o.e("\tADDQ $256, R14")
	o.e("\tSUBQ $%d, R15", 4*w)
	o.e("\tJMP  tile1")
	o.e("")
	o.e("done1:")
	o.e("\tVZEROUPPER")
	o.e("\tRET")
	o.e("")
}

// panel9 emits fmaPanel9Asm, the window-row kernel: nine consecutive rows
// (tensor.WindowRows, one history window) in tiles of 9 x 2 zmm (eighteen
// accumulators, the second register masked on a ragged last tile) while more
// than one register of columns remains, and a last register's worth in one
// 9 x 1 tile, so no all-masked register ever issues an FMA.
func panel9(o *emitter, d dtype) {
	w := d.lanes
	as := nine("R10", "DX", "R12", "R13")
	seeds := nine("CX", "BX", "DX", "R12")
	outs := nine("R11", "DI", "DX", "BX")
	o.e("// func fmaPanel9%sAsm(out, a, b, seed *%s, k, n, seedStride int64)", d.suffix, d.ty)
	o.e("TEXT ·fmaPanel9%sAsm(SB), NOSPLIT, $0-56", d.suffix)
	o.e("\tMOVQ out+0(FP), DI")
	o.e("\tMOVQ a+8(FP), SI")
	o.e("\tMOVQ b+16(FP), R14")
	o.e("\tMOVQ k+32(FP), R8")
	o.e("\tMOVQ n+40(FP), R15  // columns remaining")
	o.e("\tMOVQ R8, R10")
	o.e("\tSHLQ $%d, R10           // a row stride in bytes", d.shift)
	o.e("\tMOVQ R15, R11")
	o.e("\tSHLQ $%d, R11           // b/out row stride in bytes", d.shift)
	o.e("\tLEAQ (R10)(R10*2), R9  // three a rows in bytes")
	o.e("")
	o.e("tile92:")
	o.e("\tCMPQ R15, $%d", w)
	o.e("\tJLE  tile91")
	o.e("\tLEAQ  -%d(R15), CX  // K3 masks the second register", w)
	o.e("\tCMPQ  CX, $%d", w)
	o.e("\tJLE   lanes92")
	o.e("\tMOVQ  $%d, CX", w)
	o.e("")
	o.e("lanes92:")
	lowMask(o, "K3")
	seed9(o, d, "zero92")
	for i, s := range seeds {
		o.e("\t%s   %s, Z%d", d.mov, s, 2*i)
		o.e("\t%s.Z 64%s, K3, Z%d", d.mov, s, 2*i+1)
	}
	o.e("\tJMP       acc92")
	o.e("")
	o.e("zero92:")
	zero(o, 0, 18)
	o.e("")
	o.e("acc92:")
	cursors9(o, "kdone92")
	o.e("")
	o.e("kloop92:")
	o.e("\t%s   (AX), Z18", d.mov)
	o.e("\t%s.Z 64(AX), K3, Z19", d.mov)
	for i, a := range as {
		o.e("\t%s %s, Z%d", d.bcast, a, 20+i)
		o.e("\tVFMADD231%s  Z18, Z%d, Z%d", d.p, 20+i, 2*i)
		o.e("\tVFMADD231%s  Z19, Z%d, Z%d", d.p, 20+i, 2*i+1)
	}
	step9(o, d, "kloop92")
	o.e("")
	o.e("kdone92:")
	outs9(o)
	for i, s := range outs {
		o.e("\t%s Z%d, %s", d.mov, 2*i, s)
		o.e("\t%s Z%d, K3, 64%s", d.mov, 2*i+1, s)
	}
	o.e("\tADDQ $128, DI")
	o.e("\tADDQ $128, R14")
	o.e("\tSUBQ $%d, R15", 2*w)
	o.e("\tJMP  tile92")
	o.e("")
	o.e("tile91:")
	o.e("\tTESTQ R15, R15")
	o.e("\tJLE   done9")
	o.e("\tMOVQ  R15, CX")
	lowMask(o, "K2")
	seed9(o, d, "zero91")
	for i, s := range seeds {
		o.e("\t%s.Z %s, K2, Z%d", d.mov, s, i)
	}
	o.e("\tJMP       acc91")
	o.e("")
	o.e("zero91:")
	zero(o, 0, 9)
	o.e("")
	o.e("acc91:")
	cursors9(o, "kdone91")
	o.e("")
	o.e("kloop91:")
	o.e("\t%s.Z (AX), K2, Z9", d.mov)
	for i, a := range as {
		o.e("\t%s %s, Z%d", d.bcast, a, 10+i)
		o.e("\tVFMADD231%s  Z9, Z%d, Z%d", d.p, 10+i, i)
	}
	step9(o, d, "kloop91")
	o.e("")
	o.e("kdone91:")
	outs9(o)
	for i, s := range outs {
		o.e("\t%s Z%d, K2, %s", d.mov, i, s)
	}
	o.e("")
	o.e("done9:")
	o.e("\tVZEROUPPER")
	o.e("\tRET")
	o.e("")
}

// nine names a nine-row tile's rows as three base registers of three rows
// each: base, base + stride, base + 2·stride.
func nine(stride string, bases ...string) []string {
	var r []string
	for _, b := range bases {
		r = append(r, "("+b+")", "("+b+")("+stride+"*1)", "("+b+")("+stride+"*2)")
	}
	return r
}

// seed9 points BX, DX and R12 at the seeds of a nine-row tile's rows 0, 3
// and 6 under this column tile, CX at the seed row stride in bytes, and jumps
// to zeroLabel when there is no seed; clobbers AX.
func seed9(o *emitter, d dtype, zeroLabel string) {
	o.e("\tMOVQ  seed+24(FP), BX")
	o.e("\tTESTQ BX, BX")
	o.e("\tJZ    %s", zeroLabel)
	o.e("\tSUBQ  out+0(FP), BX")
	o.e("\tADDQ  DI, BX")
	o.e("\tMOVQ  seedStride+48(FP), CX")
	o.e("\tSHLQ  $%d, CX", d.shift)
	o.e("\tLEAQ  (CX)(CX*2), AX")
	o.e("\tLEAQ  (BX)(AX*1), DX")
	o.e("\tLEAQ  (DX)(AX*1), R12")
}

// cursors9 points DX, R12 and R13 at a's rows 0, 3 and 6, AX at b's tile and
// CX at k, going to done when k is 0.
func cursors9(o *emitter, done string) {
	o.e("\tMOVQ SI, DX")
	o.e("\tLEAQ (SI)(R9*1), R12")
	o.e("\tLEAQ (R12)(R9*1), R13")
	o.e("\tMOVQ R14, AX")
	o.e("\tMOVQ R8, CX")
	o.e("\tTESTQ CX, CX")
	o.e("\tJLE   %s", done)
}

// step9 advances the nine-row cursors by one p and loops while k remains.
func step9(o *emitter, d dtype, loop string) {
	o.e("\tADDQ $%d, DX", d.size)
	o.e("\tADDQ $%d, R12", d.size)
	o.e("\tADDQ $%d, R13", d.size)
	o.e("\tADDQ R11, AX")
	o.e("\tDECQ CX")
	o.e("\tJNZ  %s", loop)
}

// outs9 points DX and BX at out's rows 3 and 6.
func outs9(o *emitter) {
	o.e("\tLEAQ (R11)(R11*2), BX")
	o.e("\tLEAQ (DI)(BX*1), DX")
	o.e("\tLEAQ (DX)(BX*1), BX")
}

// disp is the address off(base), the displacement left out at 0.
func disp(off int, base string) string {
	if off == 0 {
		return base
	}
	return fmt.Sprint(off) + base
}
