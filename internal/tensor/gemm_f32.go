package tensor

import "math"

// Single-precision twins of the fused inference kernels (DESIGN.md §13).
// The f32 tier exists only for inference — float64 stays the training and
// autograd reference — so there is no parallel fan-out here: inference
// matrices sit far below gemmParallelThreshold and the sweep scheduler
// already saturates the cores one simulation per worker.
//
// Numerics: products and sums accumulate in float32, which is what buys the
// 2x SIMD width and halved memory traffic; transcendental activations
// evaluate through the float64 math package and narrow once, so the scalar
// tier's sigmoid/tanh/exp are correctly-rounded-from-f64 references the
// vector tier is parity-tested against.

// maddRowF32 computes orow += av * brow, 4-way unrolled (see maddRow).
//
//mpgraph:noalloc
func maddRowF32(orow, brow []float32, av float32) {
	n := len(brow)
	orow = orow[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		orow[j] += av * brow[j]
		orow[j+1] += av * brow[j+1]
		orow[j+2] += av * brow[j+2]
		orow[j+3] += av * brow[j+3]
	}
	for ; j < n; j++ {
		orow[j] += av * brow[j]
	}
}

// maddRows4F32 computes orow += a0·b0 + a1·b1 + a2·b2 + a3·b3 in one pass
// (see maddRows4: the madd kernels are store-bound, so four accumulated rows
// per orow store is the main single-thread win).
//
//mpgraph:noalloc
func maddRows4F32(orow, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) {
	n := len(orow)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for j := 0; j < n; j++ {
		orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
	}
}

// maddPanelF32 computes orow += arow @ b for one output row, blocking the
// shared dimension four rows of b at a time with the all-zero block skip.
//
//mpgraph:noalloc
func maddPanelF32(orow, arow, b []float32, n int) {
	k := len(arow)
	p := 0
	for ; p+4 <= k; p += 4 {
		a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
			continue
		}
		maddRows4F32(orow,
			b[p*n:(p+1)*n], b[(p+1)*n:(p+2)*n],
			b[(p+2)*n:(p+3)*n], b[(p+3)*n:(p+4)*n],
			a0, a1, a2, a3)
	}
	for ; p < k; p++ {
		if av := arow[p]; av != 0 {
			maddRowF32(orow, b[p*n:(p+1)*n], av)
		}
	}
}

// gemmF32 computes out += a@b with a [m x k], b [k x n], serially.
//
//mpgraph:noalloc
func gemmF32(out, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		maddPanelF32(out[i*n:(i+1)*n], a[i*k:(i+1)*k], b, n)
	}
}

// applyActF32 applies act to row in place. Sigmoid and tanh evaluate in
// float64 and narrow once — the scalar f32 reference the vector tier's
// parity tests compare against.
//
//mpgraph:noalloc
func applyActF32(row []float32, act Act) {
	switch act {
	case ActReLU:
		for i, v := range row {
			if v < 0 {
				row[i] = 0
			}
		}
	case ActSigmoid:
		for i, v := range row {
			row[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case ActTanh:
		for i, v := range row {
			row[i] = float32(math.Tanh(float64(v)))
		}
	}
}

// gemmBiasActF32 computes out = act(a@b + bias) with a [m x k], b [k x n],
// bias [n] (nil for no bias), overwriting out.
//
//mpgraph:noalloc
func gemmBiasActF32(out, a, b, bias []float32, m, k, n int, act Act) {
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		maddPanelF32(orow, a[i*k:(i+1)*k], b, n)
		if bias != nil {
			for j, bv := range bias {
				orow[j] += bv
			}
		}
		applyActF32(orow, act)
	}
}

// gemm2BiasActF32 computes out = act(a1@b1 + a2@b2 + bias) — the LSTM gate
// shape (input and recurrent product sharing one epilogue).
//
//mpgraph:noalloc
func gemm2BiasActF32(out, a1, b1, a2, b2, bias []float32, m, k1, k2, n int, act Act) {
	for i := 0; i < m; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		maddPanelF32(orow, a1[i*k1:(i+1)*k1], b1, n)
		maddPanelF32(orow, a2[i*k2:(i+1)*k2], b2, n)
		if bias != nil {
			for j, bv := range bias {
				orow[j] += bv
			}
		}
		applyActF32(orow, act)
	}
}

// softmaxInPlaceF32 applies a numerically-stable softmax to one row (exp in
// float64, narrowed once; the max-subtract and 1/sum order matches the f64
// kernel).
//
//mpgraph:noalloc
func softmaxInPlaceF32(row []float32) {
	maxV := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	var sum float32
	for i, v := range row {
		e := float32(math.Exp(float64(v - maxV)))
		row[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range row {
		row[i] *= inv
	}
}
