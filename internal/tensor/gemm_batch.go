package tensor

// Panel-GEMM tier: one weight panel multiplied against an m-row activation
// block — every live-ctx float GEMM of either precision runs here, one
// sequence (m = T) or a stacked batch (m = B*T) alike. The entry points below
// route through the AVX-512F panel kernels when available and fall back to
// the scalar register-blocked kernels of gemm.go otherwise (non-amd64 builds,
// CPUs without AVX-512F), which are row-independent too.
//
// Determinism contract: every kernel computes output row r as a pure
// function of activation row r with a fixed per-row operation sequence that
// is identical between the 9-row, 4-row and 1-row panel kernels. Results
// therefore do not depend on batch composition, nor on which tile the shape
// selects, which is what keeps sweep reports byte-identical for any batch size
// and worker count — on a given machine: the FMA/vector kernels and the scalar
// fallback round differently (≤1e-9 on scores), so report bytes depend on
// whether the host has AVX-512F.

// WindowRows is the history length T of the paper's models (Table 5: T = 9):
// one sequence is a block of nine rows, the MMAF's concatenation of two
// modalities eighteen, a stacked batch B times either — so every matrix
// product of an AMMA or TransFetch forward has m = 1 (the pooled heads) or a
// multiple of nine, and the panel tier carries a nine-row tile for it
// (fmaPanels). Any other T runs the four-row tiles, to the same bits.
const WindowRows = 9

// ForcePortableKernels routes every float kernel through the scalar fallback
// — the path non-amd64 and pre-AVX-512 machines always take — until restore
// is called. It exists so tests in this and the dependent packages can pin
// the portable path's contracts on an AVX-512 host; it is not synchronized
// and must not run concurrently with inference.
func ForcePortableKernels() (restore func()) {
	prev := useAVX512F
	useAVX512F = false
	return func() { useAVX512F = prev }
}

// PanelShape is one panel-tier product: an [M x K] activation block against a
// [K x N] weight panel.
type PanelShape struct{ M, K, N int }

// panelCensus, when non-nil, counts every product that reaches the panel
// kernels by shape.
var panelCensus map[PanelShape]int

// CountPanelShapes starts a census of the products the panel kernels run and
// returns the function that ends it and hands back calls per shape. Like
// ForcePortableKernels it is a test instrument: not synchronized, not to run
// next to concurrent inference. experiments.TestPanelCensus holds a sweep
// cell's traffic to the shapes WindowRows is built for.
func CountPanelShapes() (stop func() map[PanelShape]int) {
	panelCensus = map[PanelShape]int{}
	return func() map[PanelShape]int {
		census := panelCensus
		panelCensus = nil
		return census
	}
}

// initRowsBias seeds each of the m output rows with bias (or zeros), so the
// panel kernels accumulate straight onto it. The seeded prefix doubles each
// step: log2(m) copies instead of m short ones.
//
//mpgraph:noalloc
func initRowsBias[T float32 | float64](out, bias []T, m, n int) {
	if bias == nil {
		clear(out[:m*n])
		return
	}
	copy(out[:n], bias[:n])
	for filled := n; filled < m*n; filled *= 2 {
		copy(out[filled:m*n], out[:filled])
	}
}

// gemmBatchBiasAct computes out = act(a@b + bias) for an [m x k] activation
// block against one [k x n] weight panel: b is streamed through cache once
// for all m rows.
//
//mpgraph:noalloc
func gemmBatchBiasAct[T float32 | float64](out, a, b, bias []T, m, k, n int, act Act) {
	if m == 0 || n == 0 {
		return
	}
	if !batchKernelAvailable() {
		gemmBiasAct(out, a, b, bias, m, k, n, act)
		return
	}
	initRowsBias(out, bias, m, n)
	if k > 0 {
		fmaPanels(out, a, b, m, k, n)
	}
	ApplyActFast(out[:m*n], act)
}

// gemmBatch accumulates out += a @ b through the panel kernels (exact gemm
// fallback off AVX-512F). Used where the caller has already seeded out.
//
//mpgraph:noalloc
func gemmBatch[T float32 | float64](out, a, b []T, m, k, n int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if !batchKernelAvailable() {
		gemm(out, a, b, m, k, n)
		return
	}
	fmaPanels(out, a, b, m, k, n)
}
