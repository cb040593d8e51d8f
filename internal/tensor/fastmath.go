package tensor

// Fast elementwise math for live-ctx inference. On AVX-512F machines these
// route through the vactAVX512 vector kernel (relative error ~1e-14 against
// the math package, inside the 1e-9 fast-vs-autograd budget); everywhere
// else they delegate to the scalar math-package implementations. Both are
// elementwise, so neither depends on batch composition.

// ApplyActFast applies act elementwise in place, vectorized when available.
// Exported for the nn LSTM cell tanh.
//
//mpgraph:noalloc
func ApplyActFast(row []float64, act Act) {
	applyActFast(row, act)
}

//mpgraph:noalloc
func applyActFast(row []float64, act Act) {
	if batchKernelAvailable() {
		switch act {
		case ActSigmoid:
			vsigmoidRow(row)
			return
		case ActTanh:
			vtanhRow(row)
			return
		}
	}
	applyAct(row, act)
}

// softmaxInPlaceFast mirrors softmaxInPlace with a vectorized exp. The
// max-subtraction and 1/sum normalization match the exact kernel's operation
// order, so the only divergence is the exp evaluation itself.
//
//mpgraph:noalloc
func softmaxInPlaceFast(row []float64) {
	if !batchKernelAvailable() {
		softmaxInPlace(row)
		return
	}
	if len(row) == 0 {
		return
	}
	maxV := row[0]
	for _, v := range row[1:] {
		if v > maxV {
			maxV = v
		}
	}
	vexpRow(row, maxV)
	sum := 0.0
	for _, v := range row {
		sum += v
	}
	inv := 1 / sum
	for i := range row {
		row[i] *= inv
	}
}
