package tensor

import "mpgraph/internal/invariant"

// Batch-aware arena ops. A "stacked" tensor holds one session per block of
// rows: [blocks*T x d] in session-major order. Row-wise ops (LinearAct,
// AddLayerNorm) are batch-oblivious and run on the stacked
// tensor unchanged; the ops below are the ones that must know the block
// boundary. Each computes a block as a pure function of that block's rows, so
// a block's result never depends on batch composition and a single sequence
// is simply blocks=1. On a nil ctx each is the autograd composition it
// batches, over one sequence (blocks must be 1), as AttentionBlocks is.

// AttentionBlocks runs scaled-dot-product attention softmax(q·kᵀ·scale)·v
// independently inside each of the `blocks` equal row blocks of q/k/v
// (self-attention never crosses a session boundary) into a fresh
// [q.Rows x v.Cols] tensor: AttentionBlocksInto over all of it.
//
//mpgraph:noalloc
func AttentionBlocks[T float32 | float64](c *Ctx, q, k, v *Dense[T], blocks int, scale T) *Dense[T] {
	if c == nil {
		oneBlock("attentionBlocks", blocks)
		scores := Scale(MatMul(graph(q), Transpose(graph(k))), float64(scale))
		return ungraph[T](MatMul(SoftmaxRows(scores), graph(v)))
	}
	out := uninit[T](c, q.Rows, v.Cols)
	AttentionBlocksInto(c, out, 0, q, k, v, blocks, scale)
	return out
}

// AttentionBlocksInto is AttentionBlocks writing into a column window of
// dst, live ctx only: dst has q's rows, and output row r lands in dst row r,
// columns colOff..colOff+v.Cols-1. So attention heads write their columns of
// the multi-head concat in place. Where AVX-512F is present a block is one
// call of the fused kernel (attnBlockAsm: Kᵀ·scale, scores, softmax and the
// AV product in registers and arena scratch, stored at dst's row pitch).
// Elsewhere k is transposed and pre-scaled into scratch so the scores are a
// plain GEMM, each score row is softmaxed, and the AV product is a second
// GEMM from +0, on the scalar kernels, then moved into the window — the same
// composition, step for step, that the fused kernel replays.
//
//mpgraph:noalloc
func AttentionBlocksInto[T float32 | float64](c *Ctx, dst *Dense[T], colOff int, q, k, v *Dense[T], blocks int, scale T) {
	if c == nil || blocks <= 0 || q.Rows%blocks != 0 || dst.Rows != q.Rows {
		invariant.Failf("tensor: attentionBlocks %d rows into %d over %d blocks", q.Rows, dst.Rows, blocks)
	}
	if q.Cols != k.Cols || q.Rows != k.Rows || k.Rows != v.Rows {
		invariant.Failf("tensor: attentionBlocks q %dx%d k %dx%d v %dx%d",
			q.Rows, q.Cols, k.Rows, k.Cols, v.Rows, v.Cols)
	}
	t := q.Rows / blocks
	d := q.Cols
	dv := v.Cols
	pitch := dst.Cols
	if colOff < 0 || colOff+dv > pitch {
		invariant.Failf("tensor: attentionBlocks %d columns at %d outside %d", dv, colOff, pitch)
	}
	if t == 0 || dv == 0 {
		return
	}
	scratch := &arenaOf[T](c).data
	if batchKernelAvailable() {
		scr := scratch.takeUninit(attnScratch[T](t, d))
		for blk := 0; blk < blocks; blk++ {
			attnBlock(dst.Data[blk*t*pitch+colOff:], q.Data[blk*t*d:(blk+1)*t*d],
				k.Data[blk*t*d:(blk+1)*t*d], v.Data[blk*t*dv:(blk+1)*t*dv], scr, t, d, dv, pitch, scale)
		}
		return
	}
	kT := scratch.takeUninit(d * t)
	scores := scratch.takeUninit(t * t)
	av := scratch.takeUninit(t * dv)
	for blk := 0; blk < blocks; blk++ {
		kb := k.Data[blk*t*d : (blk+1)*t*d]
		for j := 0; j < t; j++ {
			for p, kv := range kb[j*d : (j+1)*d] {
				kT[p*t+j] = kv * scale
			}
		}
		clear(scores)
		gemm(scores, q.Data[blk*t*d:(blk+1)*t*d], kT, t, d, t)
		for r := 0; r < t; r++ {
			softmaxInPlace(scores[r*t : (r+1)*t])
		}
		clear(av)
		gemm(av, scores, v.Data[blk*t*dv:(blk+1)*t*dv], t, t, dv)
		rowsInto(dst.Data[blk*t*pitch+colOff:], av, nil, nil, t, dv, pitch, 0)
	}
}

// MeanRowsBatch reduces each block of rows to its mean row: [blocks*T x d]
// -> [blocks x d], each element the sum over the block's rows of row·(1/T),
// from +0 in row order, a multiply then an add (the order MeanRows uses).
// The vector kernel runs that order lane by lane; it is off at GOAMD64=v3,
// where the Go loop may contract the multiply-add into an FMA.
//
//mpgraph:noalloc
func MeanRowsBatch[T float32 | float64](c *Ctx, a *Dense[T], blocks int) *Dense[T] {
	if c == nil {
		oneBlock("meanRowsBatch", blocks)
		return ungraph[T](MeanRows(graph(a)))
	}
	if blocks <= 0 || a.Rows%blocks != 0 {
		invariant.Failf("tensor: meanRowsBatch %d rows over %d blocks", a.Rows, blocks)
	}
	t := a.Rows / blocks
	d := a.Cols
	if t == 0 || d == 0 {
		return zeros[T](c, blocks, d)
	}
	inv := 1 / T(t)
	if goUnfused && batchKernelAvailable() {
		out := uninit[T](c, blocks, d)
		for blk := 0; blk < blocks; blk++ {
			vmeanRows(out.Data[blk*d:(blk+1)*d], a.Data[blk*t*d:(blk+1)*t*d], t, inv)
		}
		return out
	}
	out := zeros[T](c, blocks, d)
	for blk := 0; blk < blocks; blk++ {
		orow := out.Data[blk*d : (blk+1)*d]
		for r := 0; r < t; r++ {
			arow := a.Data[(blk*t+r)*d : (blk*t+r+1)*d]
			for j, av := range arow {
				orow[j] += av * inv
			}
		}
	}
	return out
}

// AddPosBatch adds a [T x d] positional table to every block of a stacked
// [blocks*T x d] tensor — the batched form of Add(x, pos), a + pos per
// element, one rowsInto pass a block.
//
//mpgraph:noalloc
func AddPosBatch[T float32 | float64](c *Ctx, a, pos *Dense[T], blocks int) *Dense[T] {
	if c == nil {
		oneBlock("addPosBatch", blocks)
		return ungraph[T](Add(graph(a), graph(pos)))
	}
	if blocks <= 0 || a.Rows != blocks*pos.Rows || a.Cols != pos.Cols {
		invariant.Failf("tensor: addPosBatch %dx%d + %dx%d over %d blocks",
			a.Rows, a.Cols, pos.Rows, pos.Cols, blocks)
	}
	out := uninit[T](c, a.Rows, a.Cols)
	n := len(pos.Data)
	for blk := 0; blk < blocks; blk++ {
		rowsInto(out.Data[blk*n:], a.Data[blk*n:(blk+1)*n], pos.Data, nil, pos.Rows, a.Cols, a.Cols, a.Cols)
	}
	return out
}

// EmbeddingPosBatch gathers rows of table by ids and adds the [T x d]
// positional table to every block of T of them — EmbeddingLookupCtx then
// AddPosBatch, table[id] + pos per element, in one rowsInto pass a block.
//
//mpgraph:noalloc
func EmbeddingPosBatch[T float32 | float64](c *Ctx, table *Dense[T], ids []int, pos *Dense[T], blocks int) *Dense[T] {
	if c == nil {
		oneBlock("embeddingPosBatch", blocks)
		return ungraph[T](Add(EmbeddingLookup(graph(table), ids), graph(pos)))
	}
	if blocks <= 0 || len(ids) != blocks*pos.Rows || table.Cols != pos.Cols {
		invariant.Failf("tensor: embeddingPosBatch %d ids + %dx%d over %d blocks",
			len(ids), pos.Rows, pos.Cols, blocks)
	}
	checkIDs(ids, table.Rows)
	out := uninit[T](c, len(ids), table.Cols)
	n := len(pos.Data)
	for blk := 0; blk < blocks; blk++ {
		rowsInto(out.Data[blk*n:], table.Data, pos.Data, ids[blk*pos.Rows:(blk+1)*pos.Rows], pos.Rows, table.Cols, table.Cols, table.Cols)
	}
	return out
}

// AddRowPerBlock adds table row ids[i] to every row of block i — the batched
// AddBias(x, embedding-row) the per-phase embedding uses.
//
//mpgraph:noalloc
func AddRowPerBlock[T float32 | float64](c *Ctx, a, table *Dense[T], ids []int, blocks int) *Dense[T] {
	if c == nil {
		oneBlock("addRowPerBlock", blocks)
		return ungraph[T](AddBias(graph(a), EmbeddingLookup(graph(table), ids)))
	}
	if blocks <= 0 || len(ids) != blocks || a.Rows%blocks != 0 || table.Cols != a.Cols {
		invariant.Failf("tensor: addRowPerBlock %dx%d, %d ids over %d blocks",
			a.Rows, a.Cols, len(ids), blocks)
	}
	checkIDs(ids, table.Rows)
	t := a.Rows / blocks
	d := a.Cols
	out := uninit[T](c, a.Rows, a.Cols)
	for blk, id := range ids {
		rowsInto(out.Data[blk*t*d:], a.Data[blk*t*d:(blk+1)*t*d], table.Data[id*d:(id+1)*d], nil, t, d, d, 0)
	}
	return out
}

// TimeMajorBatch reorders a stacked [blocks*T x d] tensor time-major —
// block b's row s becomes row s·blocks + b, so one time step of every block
// is one run of rows (the batched LSTM's input) — by one rowsInto pass a
// block.
//
//mpgraph:noalloc
func TimeMajorBatch[T float32 | float64](c *Ctx, x *Dense[T], blocks int) *Dense[T] {
	if c == nil || blocks <= 0 || x.Rows%blocks != 0 {
		invariant.Failf("tensor: timeMajorBatch %d rows over %d blocks", x.Rows, blocks)
	}
	t := x.Rows / blocks
	d := x.Cols
	out := uninit[T](c, x.Rows, d)
	for blk := 0; blk < blocks; blk++ {
		rowsInto(out.Data[blk*d:], x.Data[blk*t*d:(blk+1)*t*d], nil, nil, t, d, blocks*d, 0)
	}
	return out
}

// rowsInto is the one body of every row move and row add of the live path:
// out row r (rows opitch elements apart) = x row r, plus y row r (rows
// ystride apart; 0 puts one row under every row) unless y is nil. x row r is
// table row ids[r] when ids is non-nil (the caller has checked every id),
// else row r of x; rows are cols wide. Where AVX-512F is present it is one
// vrows kernel call; the loop below is the same moves and adds elsewhere.
//
//mpgraph:noalloc
func rowsInto[T float32 | float64](out, x, y []T, ids []int, rows, cols, opitch, ystride int) {
	if rows == 0 || cols == 0 {
		return
	}
	_ = out[(rows-1)*opitch+cols-1]
	if ids == nil {
		_ = x[rows*cols-1]
	} else {
		_ = ids[rows-1]
	}
	if y != nil {
		_ = y[(rows-1)*ystride+cols-1]
	}
	if batchKernelAvailable() {
		vrows(out, x, y, ids, rows, cols, opitch, ystride)
		return
	}
	for r := 0; r < rows; r++ {
		xr := r
		if ids != nil {
			xr = ids[r]
		}
		src := x[xr*cols : (xr+1)*cols]
		dst := out[r*opitch : r*opitch+cols]
		if y == nil {
			copy(dst, src)
			continue
		}
		yr := y[r*ystride : r*ystride+cols]
		for j, v := range src {
			dst[j] = v + yr[j]
		}
	}
}

// oneBlock fails unless a nil-ctx (autograd) batch op was handed one
// sequence.
func oneBlock(op string, blocks int) {
	if blocks != 1 {
		invariant.Failf("tensor: %s on a nil ctx takes one sequence, not %d", op, blocks)
	}
}

// checkIDs fails on an embedding id outside [0, rows).
//
//mpgraph:noalloc
func checkIDs(ids []int, rows int) {
	for _, id := range ids {
		if id < 0 || id >= rows {
			invariant.Failf("tensor: embedding id %d out of [0,%d)", id, rows)
		}
	}
}
