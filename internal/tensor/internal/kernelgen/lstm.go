package kernelgen

import "fmt"

// lstmGates are the four gates in argument order, the order nn.LSTMOf keeps
// its per-gate arrays in: three sigmoids, then the cell candidate's tanh.
var lstmGates = [4]string{"i", "f", "o", "g"}

// lstmHead is how many k steps of a tile's recurrent product carry a share of
// the previous tile's activations.
const lstmHead = 32

// Vector registers of the LSTM kernel: a tile's accumulators are Z0..Z7 (gate
// g's first register Z2g, its second Z2g+1), the previous tile's gates wait
// in Z24..Z31 in the same order, Z8 holds the broadcast h[k], and the
// activations run three chains at a time in the scratch triples. Z12, Z13
// and Z19..Z22 keep the constants that must be a register operand: exp's
// clamps, ±40, 1 and 2 (expZ reads the others from memory).
var (
	lstmAcc     = regs(0, 8)
	lstmPrev    = regs(24, 32)
	lstmScratch = [3][3]string{{"Z9", "Z10", "Z11"}, {"Z14", "Z15", "Z16"}, {"Z17", "Z18", "Z23"}}
)

// lstm emits lstmStepsAsm, all steps of one sequence's LSTM recurrence
// (tensor.LSTMSteps) in one call. The state is h (final hidden), hs (its ping-
// pong twin) and c, all zero on entry: step s reads the h a step wrote last
// and writes the other, starting on hs when steps is odd, so the last step
// writes h. A step walks the hidden units in tiles of two zmm, one tile of
// every gate at once, R8..R11 the four Wh panels under the tile. Per tile it
//   - seeds each gate's accumulators from its row of the hoisted product p_g
//     (x·Wx_g + b_g, a row of hidden elements per step);
//   - runs the ascending-k chain of h[k]·Wh_g[k] FMAs onto them, the
//     operands in fmaPanel1Asm's positions, Wh the memory operand, k = 0
//     included (h = 0 at step 0: 0·Inf is how an Inf in Wh shows);
//   - applies sigmoid to i, f, o and tanh to g in registers (vact's emitters:
//     one exp, the same clamps and divides);
//   - rounds c = f·c + i·g as two multiplies and an add, the scalar loop's
//     operations at GOAMD64 < v3, stores c, then h = tanh(c)·o.
//
// So every element keeps the rounding sequence of the step loop it replaced
// (nn's Go loop over tensor.LinearAccum and ApplyActFast). The product is
// bound by reading Wh from L2 and the activations by latency, so they run
// side by side: a full tile parks its gates in Z24..Z31 and the next full
// tile's first lstmHead k steps carry the activations in slices (R12 and AX
// point at the parked tile's c and h). A step's last full tile carries over
// into the next step's first when no ragged tile follows and its h lies past
// every h[k] that head reads; otherwise its activations drain before the
// ragged tile, which runs unpipelined under K2 and K3, or the return. Frame:
// the ragged tile's byte offset, the steps left, whether gates are parked
// across the step boundary.
func lstm(o *emitter, d dtype) {
	w := d.lanes
	o.e("// func lstmSteps%sAsm(h, hs, c, pi, pf, po, pg, wi, wf, wo, wg *%s, steps, hidden int64)", d.suffix, d.ty)
	o.e("TEXT ·lstmSteps%sAsm(SB), NOSPLIT, $24-104", d.suffix)
	o.e("\tMOVQ hidden+96(FP), R13")
	o.e("\tSHLQ $%d, R13  // an h or Wh row in bytes", d.shift)
	o.e("\tMOVQ R13, AX")
	o.e("\tANDQ $-128, AX")
	o.e("\tMOVQ AX, full-8(SP)  // the ragged tile's offset: R13 if there is none")
	o.e("\tMOVQ R13, CX")
	o.e("\tSUBQ AX, CX")
	o.e("\tSHRQ $%d, CX  // its columns", d.shift)
	o.e("\tMOVQ  $1, AX  // K2: its first register's lanes, K3 the second's")
	o.e("\tSHLQ  CX, AX")
	o.e("\tDECQ  AX")
	o.e("\tMOVQ  AX, BX")
	o.e("\tANDQ  $%#x, BX", 1<<w-1)
	o.e("\tKMOVW BX, K2")
	o.e("\tSHRQ  $%d, AX", w)
	o.e("\tKMOVW AX, K3")
	o.e("\tMOVQ steps+88(FP), AX")
	o.e("\tMOVQ AX, left-16(SP)")
	o.e("\tMOVQ $0, carry-24(SP)")
	for _, c := range []struct {
		name string
		z    int
	}{{"clamplo", 12}, {"clamphi", 13}, {"neg40", 19}, {"pos40", 20}, {"one", 21}, {"two", 22}} {
		o.e("\t%s %s%s<>(SB), Z%d", d.bcast, d.konst, c.name, c.z)
	}
	o.e("\tMOVQ  h+0(FP), DI  // DI: the h a step reads, BX the one it writes")
	o.e("\tMOVQ  hs+8(FP), BX")
	o.e("\tTESTQ $1, steps+88(FP)")
	o.e("\tJZ    lstate")
	o.e("\tXCHGQ DI, BX")
	o.e("")
	o.e("lstate:")
	o.e("\tMOVQ c+16(FP), R14")
	o.e("\tXORQ R15, R15  // this step's p rows, in bytes")
	o.e("")
	o.e("lstep:")
	o.e("\tXORQ SI, SI  // the tile's column offset in bytes")
	o.e("\tCMPQ SI, full-8(SP)")
	o.e("\tJGE  lragged")
	o.e("\tCMPQ carry-24(SP), $0")
	o.e("\tJNE  lpipe")
	lstmSeeds(o, d, false)
	lstmLoop(o, d, "a", false)
	lstmPark(o)
	o.e("\tADDQ $128, SI")
	o.e("")
	o.e("ltiles:")
	o.e("\tCMPQ SI, full-8(SP)")
	o.e("\tJGE  lfulldone")
	o.e("")
	o.e("lpipe:")
	lstmSeeds(o, d, false)
	lstmPipelined(o, d)
	lstmPark(o)
	o.e("\tADDQ $128, SI")
	o.e("\tJMP  ltiles")
	o.e("")
	o.e("lfulldone:")
	o.e("\tMOVQ $0, carry-24(SP)")
	o.e("\tCMPQ SI, R13")
	o.e("\tJLT  ldrain  // a ragged tile follows")
	o.e("\tCMPQ SI, $%d", 128+lstmHead*d.size)
	o.e("\tJLT  ldrain  // the next step's head would read this tile's h")
	o.e("\tCMPQ left-16(SP), $1")
	o.e("\tJEQ  ldrain  // the last step")
	o.e("\tMOVQ $1, carry-24(SP)")
	o.e("\tJMP  lnext")
	o.e("")
	o.e("ldrain:")
	o.lines = append(o.lines, lstmActs(d, lstmPrev, "(R12)", "(AX)", false)...)
	o.e("")
	o.e("lragged:")
	o.e("\tCMPQ SI, R13")
	o.e("\tJGE  lnext")
	lstmSeeds(o, d, true)
	lstmLoop(o, d, "r", true)
	o.lines = append(o.lines, lstmActs(d, lstmAcc, "(R14)(SI*1)", "(BX)(SI*1)", true)...)
	o.e("")
	o.e("lnext:")
	o.e("\tXCHGQ DI, BX")
	o.e("\tADDQ  R13, R15")
	o.e("\tDECQ  left-16(SP)")
	o.e("\tJNZ   lstep")
	o.e("\tVZEROUPPER")
	o.e("\tRET")
	o.e("")
}

// lstmSeeds points R8..R11 at the four Wh panels under the tile at SI and
// loads each gate's p row there into its accumulators (K2, K3 when masked;
// a masked lane starts, and stays, +0).
func lstmSeeds(o *emitter, d dtype, masked bool) {
	for g, name := range lstmGates {
		o.e("\tMOVQ w%s+%d(FP), R%d", name, 56+8*g, 8+g)
		o.e("\tADDQ SI, R%d", 8+g)
	}
	for g, name := range lstmGates {
		o.e("\tMOVQ p%s+%d(FP), DX", name, 24+8*g)
		o.e("\tADDQ R15, DX")
		for r := 0; r < 2; r++ {
			if masked {
				o.e("\t%s.Z %s, K%d, Z%d", d.mov, disp(64*r, "(DX)(SI*1)"), 2+r, 2*g+r)
			} else {
				o.e("\t%s %s, Z%d", d.mov, disp(64*r, "(DX)(SI*1)"), 2*g+r)
			}
		}
	}
	o.e("\tLEAQ (DI)(R13*1), DX  // h's end: h[k] is (DX)(CX*%d) at CX = k - hidden", d.size)
	o.e("\tMOVQ hidden+96(FP), CX")
	o.e("\tNEGQ CX")
}

// lstmK emits one k step of the tile's product: h[k] broadcast, eight FMAs
// (K2, K3 on the tile's two registers when masked), the cursors one row on.
func lstmK(o *emitter, d dtype, masked bool) {
	o.e("\t%s (DX)(CX*%d), Z8", d.bcast, d.size)
	for g := range lstmGates {
		for r := 0; r < 2; r++ {
			k := ""
			if masked {
				k = fmt.Sprintf(", K%d", 2+r)
			}
			o.e("\tVFMADD231%s  %s, Z8%s, Z%d", d.p, disp(64*r, fmt.Sprintf("(R%d)", 8+g)), k, 2*g+r)
		}
	}
	for g := range lstmGates {
		o.e("\tADDQ R13, R%d", 8+g)
	}
	o.e("\tINCQ CX")
}

// lstmLoop emits the whole product as one loop (hidden >= 1).
func lstmLoop(o *emitter, d dtype, sfx string, masked bool) {
	o.e("")
	o.e("lk%s:", sfx)
	lstmK(o, d, masked)
	o.e("\tJNZ  lk%s", sfx)
}

// lstmPipelined emits a full tile's product with the parked tile's
// activations cut into lstmHead slices, one after each of the first lstmHead
// k steps (a step past hidden is skipped, its slice is not), then the rest
// of the product as a loop.
func lstmPipelined(o *emitter, d dtype) {
	acts := lstmActs(d, lstmPrev, "(R12)", "(AX)", false)
	for j := 0; j < lstmHead; j++ {
		o.e("\tTESTQ CX, CX")
		o.e("\tJGE   lh%d", j)
		lstmK(o, d, false)
		o.e("")
		o.e("lh%d:", j)
		o.lines = append(o.lines, acts[j*len(acts)/lstmHead:(j+1)*len(acts)/lstmHead]...)
	}
	o.e("\tTESTQ CX, CX")
	o.e("\tJGE   lbdone")
	lstmLoop(o, d, "b", false)
	o.e("")
	o.e("lbdone:")
}

// lstmPark moves the tile's gates to Z24..Z31 and points R12 and AX at its
// c and h.
func lstmPark(o *emitter) {
	for i := range lstmAcc {
		o.e("\tVMOVAPD %s, %s", lstmAcc[i], lstmPrev[i])
	}
	o.e("\tLEAQ (R14)(SI*1), R12")
	o.e("\tLEAQ (BX)(SI*1), AX")
}

// lstmActs returns the activations and cell update of a tile whose gates are
// in gates (lstmAcc's order) and whose c and h are at the addresses c and h:
// the eight gate activations and then the two cell updates, as ten chains
// interleaved three at a time.
func lstmActs(d dtype, gates []string, c, h string, masked bool) []string {
	mask, load := func(r int) string { return "" }, d.mov
	if masked {
		mask, load = func(r int) string { return fmt.Sprintf(", K%d", 2+r) }, d.mov+".Z"
	}
	var chains []func(*emitter, [3]string)
	for r := 0; r < 2; r++ {
		for g := range lstmGates {
			x := gates[2*g+r]
			chains = append(chains, func(o *emitter, t [3]string) {
				if g < 3 {
					sigmoidIn(o, d, x, t[0])
				} else {
					tanhIn(o, d, x)
				}
				expZ(o, d, true, x, t[0], t[1], t[2], x)
				if g < 3 {
					sigmoidOut(o, d, x)
				} else {
					tanhOut(o, d, x, x, x)
				}
			})
		}
	}
	for r := 0; r < 2; r++ {
		i, f, og, g := gates[r], gates[2+r], gates[4+r], gates[6+r]
		cr, hr := disp(64*r, c), disp(64*r, h)
		chains = append(chains, func(o *emitter, t [3]string) {
			o.e("\t%s %s%s, %s", load, cr, mask(r), t[0])
			o.e("\tVMUL%s %s, %s, %s  // f·c", d.p, t[0], f, f)
			o.e("\tVMUL%s %s, %s, %s  // i·g", d.p, g, i, i)
			o.e("\tVADD%s %s, %s, %s  // c", d.p, i, f, f)
			o.e("\t%s %s%s, %s", d.mov, f, mask(r), cr)
			tanhIn(o, d, f)
			expZ(o, d, true, f, t[0], t[1], t[2], f)
			tanhOut(o, d, f, f, f)
			o.e("\tVMUL%s %s, %s, %s  // h = tanh(c)·o", d.p, og, f, f)
			o.e("\t%s %s%s, %s", d.mov, f, mask(r), hr)
		})
	}
	o := &emitter{}
	for lo := 0; lo < len(chains); lo += len(lstmScratch) {
		var group []func(*emitter)
		for k := lo; k < len(chains) && k < lo+len(lstmScratch); k++ {
			c, t := chains[k], lstmScratch[k-lo]
			group = append(group, func(o *emitter) { c(o, t) })
		}
		interleave(o, group...)
	}
	return o.lines
}
