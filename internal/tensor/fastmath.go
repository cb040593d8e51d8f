package tensor

import "math"

// Row kernels of live-ctx inference: elementwise activations, row softmax
// and the fused residual LayerNorm. On AVX-512F machines they run the vector
// kernels of gemm_batch{,_f32}_amd64.s (relative error against the math
// package ~1e-14 at float64, inside the 1e-9 fast-vs-autograd budget, and
// ~1e-7 at float32, inside that tier's parity budget); everywhere else the
// scalar bodies below, on the same call path. Each output row is a function
// of its own input row only, so neither tier depends on batch composition.

// Modes of the vact kernels.
const (
	vactExp int64 = iota
	vactSigmoid
	vactTanh
	vactReLU
)

// vactModeOf maps a fused-epilogue activation to its vact mode.
var vactModeOf = [...]int64{ActReLU: vactReLU, ActSigmoid: vactSigmoid, ActTanh: vactTanh}

// ApplyActFast applies act elementwise in place, vectorized when available.
// Exported for the nn LSTM step: its gates and its cell tanh.
//
//mpgraph:noalloc
func ApplyActFast[T float32 | float64](row []T, act Act) {
	if act == ActNone {
		return
	}
	if batchKernelAvailable() {
		vact(row, vactModeOf[act], 0)
		return
	}
	applyAct(row, act)
}

// softmaxRows applies a numerically-stable softmax in place to each row of p
// [rows x cols]; tmp is scratch of the same size.
//
//mpgraph:noalloc
func softmaxRows[T float32 | float64](p, tmp []T, rows, cols int) {
	if batchKernelAvailable() {
		vsoftmaxRows(p, tmp, rows, cols)
		return
	}
	for r := 0; r < rows; r++ {
		softmaxInPlace(p[r*cols : (r+1)*cols])
	}
}

// softmaxInPlace applies a numerically-stable softmax to one row.
//
//mpgraph:noalloc
func softmaxInPlace[T float32 | float64](row []T) {
	maxV := T(math.Inf(-1))
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	var sum T
	for i, v := range row {
		e := T(math.Exp(float64(v - maxV)))
		row[i] = e
		sum += e
	}
	for i := range row {
		row[i] /= sum
	}
}

// addLayerNormRows writes LayerNorm(x + y) into out, row by row: each row of
// x + y (y nil: x alone) is normalised to zero mean and unit variance, then
// scaled by gain and shifted by bias. No intermediate tensor is built.
//
//mpgraph:noalloc
func addLayerNormRows[T float32 | float64](out, x, y, gain, bias []T, rows, cols int, eps T) {
	if batchKernelAvailable() {
		vaddLayerNorm(out, x, y, gain, bias, rows, cols, eps)
		return
	}
	addLayerNormScalar(out, x, y, gain, bias, rows, cols, eps)
}

// addLayerNormScalar is the portable body of addLayerNormRows; sums
// accumulate in T, the tier's own numerics.
//
//mpgraph:noalloc
func addLayerNormScalar[T float32 | float64](out, x, y, gain, bias []T, rows, cols int, eps T) {
	n := T(cols)
	for r := 0; r < rows; r++ {
		orow := out[r*cols : (r+1)*cols]
		copy(orow, x[r*cols:(r+1)*cols])
		if y != nil {
			for j, v := range y[r*cols : (r+1)*cols] {
				orow[j] += v
			}
		}
		var mean, variance T
		for _, v := range orow {
			mean += v
		}
		mean /= n
		for _, v := range orow {
			d := v - mean
			variance += d * d
		}
		variance /= n
		inv := T(1 / math.Sqrt(float64(variance+eps)))
		for j, v := range orow {
			orow[j] = (v-mean)*inv*gain[j] + bias[j]
		}
	}
}
