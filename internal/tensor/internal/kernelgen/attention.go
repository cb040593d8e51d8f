package kernelgen

import "fmt"

// attention emits attnBlockAsm, one whole attention block (tensor.
// AttentionBlocks), out = softmax(q·(k·scale)ᵀ)·v for q, k [t x d] and v, out
// [t x dv] (t, dv >= 1; out rows ostride elements apart, so a head can
// write its columns of a wider tensor), in sweeps over arena scratch (attnScratch) whose rows
// are whole zmm, so no load waits on a masked store:
//   - qᵀ, transposed in lanes x lanes register blocks, and k·scale row by row
//     (the one rounding the parent's transposeScale made);
//   - the scores transposed, Sᵀ[j][r], in tiles of nine j by one or two row
//     chunks: every lane is a query row, so the softmax runs down the lanes
//     with no horizontal step;
//   - the softmax of every query row, the row softmax kernel it replaced op
//     for op: lane l of that kernel's column chunks is a register of its own
//     here, so its lane max and lane sum over the chunks and its horizontal
//     fold become elementwise ops over a chunk of rows at once; exp(x - max)
//     by expZ0; one divide for 1/sum, one multiply per element. A ragged last
//     row chunk is packed densely for its exps while the full chunks' run;
//   - the AV product in nine-row tiles, the probabilities broadcast from Sᵀ.
//
// Both products keep the panel kernels' per-element FMA chain (ascending, from
// +0, each operand in the same FMA position), so every output bit is the
// parent composition's (TestKernelOracleAttention). Its row maxima skip NaN
// exactly as the scalar `v > max` scan does, so the NaN then poisons its row
// through exp and the sum.
func attention(o *emitter, d dtype) {
	w, sz, sh, lg := d.lanes, d.size, d.shift, d.lg
	p := d.p
	name, ty := "attnBlock"+d.suffix+"Asm", d.ty
	allmask, argsz := fmt.Sprintf("$%#x", 1<<w-1), 72+sz
	mov, bcast := d.mov, d.bcast

	e := o.e
	e("// func %s(out, q, k, v, scr *%s, t, d, dv, ostride int64, scale %s)", name, ty, ty)
	e("TEXT ·%s(SB), NOSPLIT, $40-%d", name, argsz)
	e("\tMOVQ t+40(FP), R8")
	e("\t// K1: lanes of the last row chunk; R12: full row chunks")
	tailMask(o, d, "R8", "R12")
	e("\tLEAQ 1(R12), R11")
	e("\tSHLQ $6, R11  // tp: one padded row of qᵀ or of the scores, in bytes")
	e("\tMOVQ d+48(FP), R9")
	e("")
	e("\t// qᵀ: d rows of tp, transposed from q in %dx%d register blocks; lanes", w, w)
	e("\t// past row t-1 are +0.")
	e("\tLEAQ %d(R9), R10", w-1)
	e("\tSHRQ $%d, R10  // column chunks of q", lg)
	e("\tMOVQ R10, AX")
	e("\tSHLQ $%d, AX", lg)
	e("\tSUBQ R9, AX")
	e("\tMOVQ $%d, CX", w)
	e("\tSUBQ AX, CX")
	e("\tMOVQ $1, AX")
	e("\tSHLQ CX, AX")
	e("\tDECQ AX")
	e("\tKMOVW AX, K4  // lanes of a q or k row's last chunk")
	e("\tMOVQ %s, AX", allmask)
	e("\tKMOVW AX, K2")
	e("\tMOVQ R9, R13")
	e("\tSHLQ $%d, R13  // q row stride in bytes", sh)
	e("\tXORQ SI, SI  // row chunk offset in qᵀ")
	e("\tMOVQ q+8(FP), DI  // q rows of this row chunk")
	e("\tMOVQ R8, BX  // rows left")
	e("")
	e("qtrow:")
	e("\tXORQ DX, DX  // column chunk offset in q")
	e("\tMOVQ R10, R15  // column chunks left")
	e("\tMOVQ scr+32(FP), R14")
	e("\tADDQ SI, R14  // qᵀ row p = 0 under this row chunk")
	e("")
	e("qtblk:")
	e("\tTESTQ R15, R15")
	e("\tJLE   qtnext")
	e("\tKMOVW K2, K3")
	e("\tCMPQ  R15, $1")
	e("\tJNE   qtload")
	e("\tKMOVW K4, K3")
	e("")
	e("qtload:")
	e("\tLEAQ (DI)(DX*1), AX")
	e("\tMOVQ BX, CX")
	for i := 0; i < w; i++ {
		e("\t%s.Z (AX), K3, Z%d", mov, i)
		if i < w-1 {
			e("\tDECQ CX")
			e("\tJZ   qtz%d", i+1)
			e("\tADDQ R13, AX")
		}
	}
	e("\tJMP  qtt")
	for i := 1; i < w; i++ {
		e("qtz%d:", i)
		e("\tVPXORD Z%d, Z%d, Z%d", i, i, i)
	}
	e("")
	e("qtt:")
	transpose(o, d)
	e("\tMOVQ d+48(FP), CX")
	e("\tMOVQ DX, AX")
	e("\tSHRQ $%d, AX", sh)
	e("\tSUBQ AX, CX  // qᵀ rows left from this block on")
	e("\tMOVQ R14, AX")
	for i := 0; i < w; i++ {
		e("\t%s Z%d, (AX)", mov, i)
		if i < w-1 {
			e("\tDECQ CX")
			e("\tJZ   qtstored")
			e("\tADDQ R11, AX")
		}
	}
	e("")
	e("qtstored:")
	e("\tADDQ $64, DX")
	e("\tMOVQ R11, AX")
	e("\tSHLQ $%d, AX", lg)
	e("\tADDQ AX, R14  // %d qᵀ rows on", w)
	e("\tDECQ R15")
	e("\tJMP  qtblk")
	e("")
	e("qtnext:")
	e("\tADDQ $64, SI")
	e("\tMOVQ R13, AX")
	e("\tSHLQ $%d, AX", lg)
	e("\tADDQ AX, DI  // %d q rows on", w)
	e("\tSUBQ $%d, BX", w)
	e("\tJG   qtrow")
	e("\tMOVQ d+48(FP), R14")
	e("\tIMULQ R11, R14")
	e("\tADDQ scr+32(FP), R14  // past qᵀ")
	e("")
	e("qtdone:")
	e("\t// k·scale: t rows of dp (d rounded up to %d, pad lanes +0), then eight", w)
	e("\t// rows of +0 that the last score tile may read.")
	e("\tMOVQ R14, ks-8(SP)")
	e("\tMOVQ R10, R13")
	e("\tSHLQ $6, R13  // dp in bytes")
	e("\t%s scale+72(FP), Z29", bcast)
	e("\tMOVQ k+16(FP), SI")
	e("\tMOVQ R9, AX")
	e("\tSHLQ $%d, AX  // k row stride in bytes", sh)
	e("\tMOVQ R8, BX")
	e("")
	e("ksrow:")
	e("\tTESTQ BX, BX")
	e("\tJLE   kspad")
	e("\tMOVQ  R10, CX")
	e("\tXORQ  DX, DX")
	e("")
	e("kschunk:")
	e("\tCMPQ CX, $1")
	e("\tJLT  ksnext")
	e("\tJEQ  kslast")
	e("\t%s (SI)(DX*1), Z0", mov)
	e("\tVMUL%s  Z29, Z0, Z0", p)
	e("\t%s Z0, (R14)(DX*1)", mov)
	e("\tADDQ $64, DX")
	e("\tDECQ CX")
	e("\tJMP  kschunk")
	e("")
	e("kslast:")
	e("\t%s.Z (SI)(DX*1), K4, Z0", mov)
	e("\tVMUL%s    Z29, Z0, Z0", p)
	e("\t%s   Z0, (R14)(DX*1)", mov)
	e("")
	e("ksnext:")
	e("\tADDQ AX, SI")
	e("\tADDQ R13, R14")
	e("\tDECQ BX")
	e("\tJMP  ksrow")
	e("")
	e("kspad:")
	e("\tVPXORD Z0, Z0, Z0")
	e("\tMOVQ  R10, CX")
	e("\tSHLQ  $3, CX")
	e("")
	e("kspadloop:")
	e("\tTESTQ CX, CX")
	e("\tJLE   ksdone")
	e("\t%s Z0, (R14)", mov)
	e("\tADDQ  $64, R14")
	e("\tDECQ  CX")
	e("\tJMP   kspadloop")
	e("")
	e("ksdone:")
	e("\tMOVQ R14, st-16(SP)  // scores, then probabilities: t+8 rows of tp")
	e("\tLEAQ 8(R8), AX")
	e("\tIMULQ R11, AX")
	e("\tADDQ R14, AX")
	e("\tMOVQ AX, pack-24(SP)  // a ragged last r-chunk's exp arguments, packed")
	e("\tMOVQ R8, CX")
	e("\tINCQ CX")
	e("\tSHLQ $6, CX")
	e("\tADDQ CX, AX")
	e("\tMOVQ AX, maxima-32(SP)  // one register of row maxima per r-chunk")
	e("")
	scores(o, d)
	softmax(o, d)
	av(o, d)
}

// scores emits the transposed score tiles: nine j by two row chunks while
// two remain, then by one.
func scores(o *emitter, d dtype) {
	e, p, mov, bcast, sz := o.e, d.p, d.mov, d.bcast, d.size
	e("\t// Scores, transposed: row j of the block holds q·(k_j·scale) for every")
	e("\t// query row r in its lanes, r-chunk by r-chunk, in tiles of nine j by one")
	e("\t// or two chunks. An element is the ascending-p FMA chain from +0 with")
	e("\t// q in the FMA's second operand and k·scale in its third, as in the")
	e("\t// panel kernels, so it is the score the panel GEMM made, bit for bit.")
	e("\tMOVQ R13, R9  // k·scale row stride")
	e("\tXORQ R13, R13  // first j of the tile")
	e("")
	e("stile:")
	e("\tCMPQ R13, R8")
	e("\tJGE  stdone")
	e("\tXORQ SI, SI  // row chunk offset")
	e("\tLEAQ 1(R12), R14  // row chunks left")
	e("")
	addrs := []string{"(DX)", "(DX)(R9*1)", "(DX)(R9*2)", "(R10)", "(R10)(R9*1)", "(R10)(R9*2)",
		"(R15)", "(R15)(R9*1)", "(R15)(R9*2)"}
	outs := []string{"(DI)", "(DI)(R11*1)", "(DI)(R11*2)", "(DX)", "(DX)(R11*1)", "(DX)(R11*2)",
		"(R10)", "(R10)(R11*1)", "(R10)(R11*2)"}
	for _, two := range []bool{true, false} {
		lbl, nacc := "sc1", 9
		if two {
			lbl, nacc = "sc2", 18
			e("schunk:")
			e("\tCMPQ R14, $2")
			e("\tJLT  sc1")
		} else {
			e("sc1:")
			e("\tTESTQ R14, R14")
			e("\tJLE   snext")
		}
		for i := 0; i < nacc; i++ {
			e("\tVPXORD Z%d, Z%d, Z%d", i, i, i)
		}
		e("\tMOVQ  R13, DX")
		e("\tIMULQ R9, DX")
		e("\tADDQ  ks-8(SP), DX")
		e("\tLEAQ  (R9)(R9*2), BX")
		e("\tLEAQ  (DX)(BX*1), R10")
		e("\tLEAQ  (R10)(BX*1), R15")
		e("\tMOVQ  scr+32(FP), AX")
		e("\tADDQ  SI, AX")
		e("\tMOVQ  d+48(FP), CX")
		e("\tTESTQ CX, CX")
		e("\tJLE   %sdone", lbl)
		e("")
		e("%sloop:", lbl)
		e("\t%s (AX), Z18", mov)
		if two {
			e("\t%s 64(AX), Z19", mov)
		}
		for i, a := range addrs {
			b := fmt.Sprintf("Z%d", 20+i)
			e("\t%s %s, %s", bcast, a, b)
			if two {
				e("\tVFMADD231%s  %s, Z18, Z%d", p, b, 2*i)
				e("\tVFMADD231%s  %s, Z19, Z%d", p, b, 2*i+1)
			} else {
				e("\tVFMADD231%s  %s, Z18, Z%d", p, b, i)
			}
		}
		e("\tADDQ $%d, DX", sz)
		e("\tADDQ $%d, R10", sz)
		e("\tADDQ $%d, R15", sz)
		e("\tADDQ R11, AX")
		e("\tDECQ CX")
		e("\tJNZ  %sloop", lbl)
		e("")
		e("%sdone:", lbl)
		e("\tMOVQ  R13, DI")
		e("\tIMULQ R11, DI")
		e("\tADDQ  st-16(SP), DI")
		e("\tADDQ  SI, DI")
		e("\tLEAQ  (R11)(R11*2), BX")
		e("\tLEAQ  (DI)(BX*1), DX")
		e("\tLEAQ  (DX)(BX*1), R10")
		for i, a := range outs {
			if two {
				e("\t%s Z%d, %s", mov, 2*i, a)
				e("\t%s Z%d, 64%s", mov, 2*i+1, a)
			} else {
				e("\t%s Z%d, %s", mov, i, a)
			}
		}
		if two {
			e("\tADDQ $128, SI")
			e("\tSUBQ $2, R14")
			e("\tJMP  schunk")
		}
		e("")
	}
	e("snext:")
	e("\tADDQ $9, R13")
	e("\tJMP  stile")
	e("")
}

// softmax emits the lane-wise softmax of every row chunk of the transposed
// scores: maxima, exps (a ragged last chunk packed), sums and probabilities.
func softmax(o *emitter, d dtype) {
	e, p, mov, bcast, w, sh, lg := o.e, d.p, d.mov, d.bcast, d.lanes, d.shift, d.lg
	// Lane registers of the max and sum trees, free of the exp constants;
	// a scratch register, and one for the maxima of a chunk.
	lanes := regs(0, 8)
	xtmp, mreg := "Z8", "Z10"
	if w == 16 {
		lanes = append(regs(0, 12), "Z19", "Z20", "Z22", "Z23")
		xtmp, mreg = "Z24", "Z24"
	}
	e("stdone:")
	e("\t// Softmax down each lane (query row) of every r-chunk. The lane maxima")
	e("\t// and sums are the ones the row softmax kernel made: per lane l of its")
	e("\t// %d-column chunks, the running VMAX%s (the score first, so a NaN score", w, p)
	e("\t// never wins) and VADD%s over the full chunks then the tail's lanes, then", p)
	e("\t// the horizontal fold (lane i with i+%d, ...), each op with the same sources", w/2)
	e("\t// in the same places; here every lane of those registers is a register")
	e("\t// of its own and the fold is elementwise, so no horizontal step is left.")
	expConsts(o, d, false)
	e("\tMOVQ R8, R15")
	e("\tMOVQ R12, AX")
	e("\tSHLQ $%d, AX", lg)
	e("\tSUBQ AX, R15  // columns in the tail chunk")
	e("")
	e("\t// Row maxima of every r-chunk, one register each.")
	e("\tXORQ SI, SI  // row chunk offset")
	e("\tLEAQ 1(R12), R14  // row chunks left")
	e("")
	e("sm:")
	e("\t%s %sneginf<>(SB), %s", bcast, d.konst, xtmp)
	for _, r := range lanes {
		e("\tVMOVAP%s %s, %s", p[1:], xtmp, r)
	}
	reduce(e, "mx", lanes, xtmp, mov, "VMAX"+p, true)
	e("\tMOVQ maxima-32(SP), AX")
	e("\t%s %s, (AX)(SI*1)", mov, lanes[0])
	e("\tADDQ $64, SI")
	e("\tDECQ R14")
	e("\tJNZ  sm")
	e("")
	e("\t// A last r-chunk of R15 < %d rows behind full ones is packed: its", w)
	e("\t// x - max go densely, t runs of R15, so exp takes t·R15/%d registers", w)
	e("\t// rather than t, and the full chunks' exps cover the packing's stores.")
	e("\t// Every store is a whole register; the next run overwrites the spill.")
	e("\tLEAQ 1(R12), R14")
	e("\tMOVQ R14, dense-40(SP)  // r-chunks whose exps run in place")
	e("\tTESTQ R12, R12")
	e("\tJZ    exall")
	e("\tCMPQ  R15, $%d", w)
	e("\tJEQ   exall")
	e("\tMOVQ  R12, dense-40(SP)")
	e("\tMOVQ  R12, SI")
	e("\tSHLQ  $6, SI  // the last chunk")
	e("\tMOVQ  maxima-32(SP), AX")
	e("\t%s (AX)(SI*1), %s", mov, mreg)
	e("\tMOVQ  st-16(SP), DI")
	e("\tADDQ  SI, DI")
	e("\tMOVQ  pack-24(SP), AX")
	e("\tMOVQ  R15, BX")
	e("\tSHLQ  $%d, BX", sh)
	e("\tMOVQ  R8, CX")
	e("")
	e("pk:")
	e("\t%s (DI), Z0", mov)
	e("\tVSUB%s  %s, Z0, Z0", p, mreg)
	e("\t%s Z0, (AX)", mov)
	e("\tADDQ    R11, DI")
	e("\tADDQ    BX, AX")
	e("\tDECQ    CX")
	e("\tJNZ     pk")
	e("")
	e("exall:")
	e("\tXORQ SI, SI")
	e("\tMOVQ dense-40(SP), R14")
	e("")
	e("exchunk:")
	e("\tMOVQ maxima-32(SP), AX")
	e("\t%s (AX)(SI*1), %s", mov, mreg)
	e("\tMOVQ st-16(SP), DI")
	e("\tADDQ SI, DI")
	e("\tMOVQ R8, CX")
	e("")
	e("ex:")
	e("\t%s (DI), Z0", mov)
	e("\tVSUB%s  %s, Z0, Z0", p, mreg)
	expZ0(o, d)
	e("\t%s Z4, (DI)", mov)
	e("\tADDQ    R11, DI")
	e("\tDECQ    CX")
	e("\tJNZ     ex")
	e("\tADDQ $64, SI")
	e("\tDECQ R14")
	e("\tJNZ  exchunk")
	e("\tCMPQ dense-40(SP), R12")
	e("\tJNE  sumall")
	e("\tMOVQ  R8, CX")
	e("\tIMULQ R15, CX")
	e("\tADDQ  $%d, CX", w-1)
	e("\tSHRQ  $%d, CX", lg)
	e("\tMOVQ  pack-24(SP), AX")
	e("")
	e("pe:")
	e("\t%s (AX), Z0", mov)
	expZ0(o, d)
	e("\t%s Z4, (AX)", mov)
	e("\tADDQ    $64, AX")
	e("\tDECQ    CX")
	e("\tJNZ     pe")
	e("")
	e("\t// Sums, 1/sum and the probabilities, r-chunk by r-chunk; a packed")
	e("\t// chunk, last, is unpacked first, the full chunks having given its exp")
	e("\t// stores time to land.")
	e("sumall:")
	e("\tXORQ SI, SI")
	e("\tLEAQ 1(R12), R14")
	e("")
	e("sumchunk:")
	e("\tCMPQ R14, $1")
	e("\tJNE  sum0")
	e("\tCMPQ dense-40(SP), R12")
	e("\tJNE  sum0")
	e("\tMOVQ st-16(SP), DI")
	e("\tADDQ SI, DI")
	e("\tMOVQ pack-24(SP), AX")
	e("\tMOVQ R15, BX")
	e("\tSHLQ $%d, BX", sh)
	e("\tMOVQ R8, CX")
	e("")
	e("pu:")
	e("\t%s (AX), Z0", mov)
	e("\t%s Z0, (DI)", mov)
	e("\tADDQ    R11, DI")
	e("\tADDQ    BX, AX")
	e("\tDECQ    CX")
	e("\tJNZ     pu")
	e("")
	e("sum0:")
	for _, r := range lanes {
		e("\tVPXORD %s, %s, %s", r, r, r)
	}
	reduce(e, "sum", lanes, xtmp, mov, "VADD"+p, false)
	e("\tVDIV%s %s, Z21, %s  // 1/sum", p, lanes[0], lanes[0])
	e("\tMOVQ st-16(SP), DI")
	e("\tADDQ SI, DI")
	e("\tMOVQ R12, CX")
	e("\tSHLQ $%d, CX  // columns in full chunks: 1/sum·e", lg)
	e("")
	e("nmfull:")
	e("\tTESTQ CX, CX")
	e("\tJLE   nmtail")
	e("\tVMUL%s  (DI), %s, Z1", p, lanes[0])
	e("\t%s Z1, (DI)", mov)
	e("\tADDQ    R11, DI")
	e("\tDECQ    CX")
	e("\tJMP     nmfull")
	e("")
	e("nmtail:")
	e("\tMOVQ R15, CX  // the tail chunk's: e·1/sum")
	e("")
	e("nmtailloop:")
	e("\t%s (DI), Z1", mov)
	e("\tVMUL%s  %s, Z1, Z1", p, lanes[0])
	e("\t%s Z1, (DI)", mov)
	e("\tADDQ    R11, DI")
	e("\tDECQ    CX")
	e("\tJNZ     nmtailloop")
	e("\tADDQ $64, SI")
	e("\tDECQ R14")
	e("\tJNZ  sumchunk")
	e("")
}

// av emits the AV product: nine output rows by two column chunks while more
// than one remains, then by one.
func av(o *emitter, d dtype) {
	e, p, mov, bcast, w, sz, sh := o.e, d.p, d.mov, d.bcast, d.lanes, d.size, d.shift
	e("\t// AV: out rows r0..r0+8 by one or two column chunks, the ascending-j FMA")
	e("\t// chain from +0 with the probability (broadcast from lane r of")
	e("\t// probability row j) second and v third, as the panel GEMM had them.")
	e("\t// Rows past t are computed from pad lanes and not stored.")
	e("\tMOVQ dv+56(FP), R9")
	e("\tSHLQ $%d, R9  // v row stride", sh)
	e("\tMOVQ ostride+64(FP), R14")
	e("\tSHLQ $%d, R14  // out row stride", sh)
	e("\tXORQ R13, R13")
	e("")
	e("atile:")
	e("\tCMPQ R13, R8")
	e("\tJGE  done")
	e("\tMOVQ dv+56(FP), BX  // columns left")
	e("\tXORQ SI, SI  // column offset in bytes")
	e("")
	for _, two := range []bool{true, false} {
		lbl, nacc := "av1", 9
		if two {
			lbl, nacc = "av2", 18
			e("acol:")
			e("\tCMPQ BX, $%d", w)
			e("\tJLE  av1")
			e("\tLEAQ -%d(BX), CX", w)
			e("\tCMPQ CX, $%d", w)
			e("\tJLE  avlanes")
			e("\tMOVQ $%d, CX", w)
			e("")
			e("avlanes:")
		} else {
			e("av1:")
			e("\tTESTQ BX, BX")
			e("\tJLE   anext")
			e("\tMOVQ  BX, CX")
		}
		e("\tMOVQ  $1, AX")
		e("\tSHLQ  CX, AX")
		e("\tDECQ  AX")
		e("\tKMOVW AX, K3")
		for i := 0; i < nacc; i++ {
			e("\tVPXORD Z%d, Z%d, Z%d", i, i, i)
		}
		e("\tMOVQ st-16(SP), AX")
		e("\tLEAQ (AX)(R13*%d), AX  // probability of row r0, column j = 0", sz)
		e("\tMOVQ v+24(FP), DX")
		e("\tADDQ SI, DX")
		e("\tMOVQ R8, CX")
		e("")
		e("%sloop:", lbl)
		if two {
			e("\t%s   (DX), Z18", mov)
			e("\t%s.Z 64(DX), K3, Z19", mov)
		} else {
			e("\t%s.Z (DX), K3, Z18", mov)
		}
		for i := 0; i < 9; i++ {
			b := fmt.Sprintf("Z%d", 20+i)
			e("\t%s %d(AX), %s", bcast, i*sz, b)
			if two {
				e("\tVFMADD231%s  Z18, %s, Z%d", p, b, 2*i)
				e("\tVFMADD231%s  Z19, %s, Z%d", p, b, 2*i+1)
			} else {
				e("\tVFMADD231%s  Z18, %s, Z%d", p, b, i)
			}
		}
		e("\tADDQ R11, AX")
		e("\tADDQ R9, DX")
		e("\tDECQ CX")
		e("\tJNZ  %sloop", lbl)
		e("\tMOVQ  R13, DI")
		e("\tIMULQ R14, DI")
		e("\tADDQ  out+0(FP), DI")
		e("\tADDQ  SI, DI")
		e("\tMOVQ  R8, CX")
		e("\tSUBQ  R13, CX  // rows left")
		for i := 0; i < 9; i++ {
			if two {
				e("\t%s Z%d, (DI)", mov, 2*i)
				e("\t%s Z%d, K3, 64(DI)", mov, 2*i+1)
			} else {
				e("\t%s Z%d, K3, (DI)", mov, i)
			}
			if i < 8 {
				e("\tDECQ CX")
				e("\tJZ   %sstored", lbl)
				e("\tADDQ R14, DI")
			}
		}
		e("")
		e("%sstored:", lbl)
		if two {
			e("\tADDQ $128, SI")
			e("\tSUBQ $%d, BX", 2*w)
			e("\tJMP  acol")
			e("")
		}
	}
	e("anext:")
	e("\tADDQ $9, R13")
	e("\tJMP  atile")
	e("")
	e("done:")
	e("\tVZEROUPPER")
	e("\tRET")
}

// transpose emits the in-register transpose of the W x W block in
// Z0..Z(W-1): row i in Zi becomes column j in Zj.
func transpose(o *emitter, d dtype) {
	e := o.e
	var groups [][4]int
	op, stride := "VSHUFF64X2", 2
	if d.lanes == 16 {
		// Z16+2k, Z17+2k: rows 2k, 2k+1 interleaved within each 128-bit lane.
		for k := 0; k < 8; k++ {
			e("\tVUNPCKLPS Z%d, Z%d, Z%d", 2*k+1, 2*k, 16+2*k)
			e("\tVUNPCKHPS Z%d, Z%d, Z%d", 2*k+1, 2*k, 17+2*k)
		}
		// Z4g+c: lane L holds column 4L+c of rows 4g..4g+3.
		for g := 0; g < 4; g++ {
			t := 16 + 4*g
			e("\tVSHUFPS $0x44, Z%d, Z%d, Z%d", t+2, t, 4*g+0)
			e("\tVSHUFPS $0xEE, Z%d, Z%d, Z%d", t+2, t, 4*g+1)
			e("\tVSHUFPS $0x44, Z%d, Z%d, Z%d", t+3, t+1, 4*g+2)
			e("\tVSHUFPS $0xEE, Z%d, Z%d, Z%d", t+3, t+1, 4*g+3)
		}
		for c := 0; c < 4; c++ {
			groups = append(groups, [4]int{c, 4 + c, 8 + c, 12 + c})
		}
		op, stride = "VSHUFF32X4", 4
	} else {
		// Z16+2k+c: lane L holds column 2L+c of rows 2k, 2k+1.
		for k := 0; k < 4; k++ {
			e("\tVUNPCKLPD Z%d, Z%d, Z%d", 2*k+1, 2*k, 16+2*k)
			e("\tVUNPCKHPD Z%d, Z%d, Z%d", 2*k+1, 2*k, 17+2*k)
		}
		for c := 0; c < 2; c++ {
			groups = append(groups, [4]int{16 + c, 18 + c, 20 + c, 22 + c})
		}
	}
	// Each group is a 4x4 matrix of 128-bit lanes (register g, lane L); its
	// transpose puts lane L of the four registers into column register
	// stride*L + c.
	for c, in := range groups {
		e("\t%s $0x88, Z%d, Z%d, Z24", op, in[1], in[0])
		e("\t%s $0xDD, Z%d, Z%d, Z25", op, in[1], in[0])
		e("\t%s $0x88, Z%d, Z%d, Z26", op, in[3], in[2])
		e("\t%s $0xDD, Z%d, Z%d, Z27", op, in[3], in[2])
		e("\t%s $0x88, Z26, Z24, Z%d", op, 0*stride+c)
		e("\t%s $0xDD, Z26, Z24, Z%d", op, 2*stride+c)
		e("\t%s $0x88, Z27, Z25, Z%d", op, 1*stride+c)
		e("\t%s $0xDD, Z27, Z25, Z%d", op, 3*stride+c)
	}
}

// reduce emits the lane-wise running reduction over the full chunks, then
// the tail's lanes, then the horizontal fold. DI walks the rows of this r-chunk.
func reduce(e func(string, ...any), lbl string, lanes []string, xtmp, mov, op string, isMax bool) {
	step := func(r string) {
		if isMax {
			e("\t%s (DI), %s", mov, xtmp)
			e("\t%s %s, %s, %s", op, r, xtmp, r)
		} else {
			e("\t%s (DI), %s, %s", op, r, r)
		}
		e("\tADDQ R11, DI")
	}
	e("\tMOVQ st-16(SP), DI")
	e("\tADDQ SI, DI")
	e("\tMOVQ R12, CX")
	e("")
	e("%sfull:", lbl)
	e("\tTESTQ CX, CX")
	e("\tJLE   %stail", lbl)
	for _, r := range lanes {
		step(r)
	}
	e("\tDECQ CX")
	e("\tJMP  %sfull", lbl)
	e("")
	e("%stail:", lbl)
	e("\tMOVQ R15, CX")
	for i, r := range lanes {
		step(r)
		if i < len(lanes)-1 {
			e("\tDECQ CX")
			e("\tJZ   %sfold", lbl)
		}
	}
	e("")
	e("%sfold:", lbl)
	for n := len(lanes); n > 1; n /= 2 {
		h := n / 2
		for i := 0; i < h; i++ {
			e("\t%s %s, %s, %s", op, lanes[i+h], lanes[i], lanes[i])
		}
	}
}
