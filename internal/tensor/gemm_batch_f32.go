package tensor

// Batched entry points of the f32 compute tier (DESIGN.md §13). Structure
// mirrors gemm_batch.go: route through the AVX-512F f32 panel kernels when
// available, fall back to the exact scalar f32 kernels otherwise, and keep
// every output row a pure function of its own activation row so batch
// composition never changes bits.
//
// Unlike the f64 tier — whose sequential path predates batching and keeps
// its own scalar kernels — the f32 tier is new, so sequential f32 inference
// uses these same entry points at m = HistoryT-sized row counts and the
// vector tier accelerates both.

// initRowsBiasF32 seeds each of the m output rows with bias (or zeros), by
// doubling like initRowsBias.
//
//mpgraph:noalloc
func initRowsBiasF32(out, bias []float32, m, n int) {
	if bias == nil {
		clear(out[:m*n])
		return
	}
	copy(out[:n], bias[:n])
	for filled := n; filled < m*n; filled *= 2 {
		copy(out[filled:m*n], out[:filled])
	}
}

// gemmBatchBiasActF32 computes out = act(a@b + bias) for a stacked [m x k]
// activation block against one [k x n] f32 weight panel.
//
//mpgraph:noalloc
func gemmBatchBiasActF32(out, a, b, bias []float32, m, k, n int, act Act) {
	if m == 0 || n == 0 {
		return
	}
	if !batchKernelAvailable() {
		gemmBiasActF32(out, a, b, bias, m, k, n, act)
		return
	}
	initRowsBiasF32(out, bias, m, n)
	if k > 0 {
		fmaPanelsF32(out, a, b, m, k, n)
	}
	applyActFastF32(out[:m*n], act)
}

// gemm2BatchBiasActF32 computes out = act(a1@b1 + a2@b2 + bias) — the fused
// two-input LSTM gate form — over a stacked m-row batch.
//
//mpgraph:noalloc
func gemm2BatchBiasActF32(out, a1, b1, a2, b2, bias []float32, m, k1, k2, n int, act Act) {
	if m == 0 || n == 0 {
		return
	}
	if !batchKernelAvailable() {
		gemm2BiasActF32(out, a1, b1, a2, b2, bias, m, k1, k2, n, act)
		return
	}
	initRowsBiasF32(out, bias, m, n)
	if k1 > 0 {
		fmaPanelsF32(out, a1, b1, m, k1, n)
	}
	if k2 > 0 {
		fmaPanelsF32(out, a2, b2, m, k2, n)
	}
	applyActFastF32(out[:m*n], act)
}

// gemmBatchF32 accumulates out += a @ b through the panel kernels (exact
// scalar fallback off AVX-512F). Used where the caller has already seeded
// out.
//
//mpgraph:noalloc
func gemmBatchF32(out, a, b []float32, m, k, n int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if !batchKernelAvailable() {
		gemmF32(out, a, b, m, k, n)
		return
	}
	fmaPanelsF32(out, a, b, m, k, n)
}
