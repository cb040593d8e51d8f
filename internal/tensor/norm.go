package tensor

import (
	"math"

	"mpgraph/internal/invariant"
)

// NormalizeRows normalises each row to zero mean and unit variance
// (the statistics part of layer normalisation; learnable gain/bias live in
// the nn layer via MulBias/AddBias).
func NormalizeRows(a *Tensor, eps float64) *Tensor {
	out := newResult(a.Rows, a.Cols, []*Tensor{a}, nil)
	n := float64(a.Cols)
	means := make([]float64, a.Rows)
	invStds := make([]float64, a.Rows)
	for r := 0; r < a.Rows; r++ {
		base := r * a.Cols
		mean := 0.0
		for c := 0; c < a.Cols; c++ {
			mean += a.Data[base+c]
		}
		mean /= n
		variance := 0.0
		for c := 0; c < a.Cols; c++ {
			d := a.Data[base+c] - mean
			variance += d * d
		}
		variance /= n
		inv := 1 / math.Sqrt(variance+eps)
		means[r], invStds[r] = mean, inv
		for c := 0; c < a.Cols; c++ {
			out.Data[base+c] = (a.Data[base+c] - mean) * inv
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				base := r * a.Cols
				inv := invStds[r]
				// dL/dx = inv * (dy - mean(dy) - y*mean(dy*y))
				meanDy := 0.0
				meanDyY := 0.0
				for c := 0; c < a.Cols; c++ {
					meanDy += out.Grad[base+c]
					meanDyY += out.Grad[base+c] * out.Data[base+c]
				}
				meanDy /= n
				meanDyY /= n
				for c := 0; c < a.Cols; c++ {
					a.Grad[base+c] += inv * (out.Grad[base+c] - meanDy - out.Data[base+c]*meanDyY)
				}
			}
		}
	}
	return out
}

// MulBias multiplies every row of a [m x n] elementwise by the row vector
// gain [1 x n] (the learnable scale of layer normalisation).
func MulBias(a, gain *Tensor) *Tensor {
	if gain.Rows != 1 || gain.Cols != a.Cols {
		invariant.Failf("tensor: mulbias %dx%d * %dx%d", a.Rows, a.Cols, gain.Rows, gain.Cols)
	}
	out := newResult(a.Rows, a.Cols, []*Tensor{a, gain}, nil)
	for r := 0; r < a.Rows; r++ {
		base := r * a.Cols
		for c := 0; c < a.Cols; c++ {
			out.Data[base+c] = a.Data[base+c] * gain.Data[c]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			n := a.Cols
			if a.requiresGrad {
				a.ensureGrad()
				for r := 0; r < a.Rows; r++ {
					maddVec(a.Grad[r*n:(r+1)*n], out.Grad[r*n:(r+1)*n], gain.Data)
				}
			}
			if gain.requiresGrad {
				gain.ensureGrad()
				for r := 0; r < a.Rows; r++ {
					maddVec(gain.Grad, out.Grad[r*n:(r+1)*n], a.Data[r*n:(r+1)*n])
				}
			}
		}
	}
	return out
}
