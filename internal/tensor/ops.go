package tensor

import (
	"math"

	"mpgraph/internal/invariant"
)

// MatMul returns a@b for a [m x k] and b [k x n].
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		invariant.Failf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := newResult(a.Rows, b.Cols, []*Tensor{a, b}, nil)
	gemm(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				// dA = dOut @ B^T
				gemmNT(a.Grad, out.Grad, b.Data, a.Rows, b.Cols, a.Cols)
			}
			if b.requiresGrad {
				b.ensureGrad()
				// dB = A^T @ dOut
				gemmTN(b.Grad, a.Data, out.Grad, a.Cols, a.Rows, b.Cols)
			}
		}
	}
	return out
}

// Add returns a+b elementwise (same shape).
func Add(a, b *Tensor) *Tensor {
	checkSameShape("add", a, b)
	out := newResult(a.Rows, a.Cols, []*Tensor{a, b}, nil)
	addVec(out.Data, a.Data, b.Data)
	if out.requiresGrad {
		out.backward = func() {
			for _, p := range []*Tensor{a, b} {
				if p.requiresGrad {
					p.ensureGrad()
					addVec(p.Grad, p.Grad, out.Grad)
				}
			}
		}
	}
	return out
}

// AddBias adds row vector bias [1 x n] to every row of a [m x n].
func AddBias(a, bias *Tensor) *Tensor {
	if bias.Rows != 1 || bias.Cols != a.Cols {
		invariant.Failf("tensor: addbias %dx%d + %dx%d", a.Rows, a.Cols, bias.Rows, bias.Cols)
	}
	out := newResult(a.Rows, a.Cols, []*Tensor{a, bias}, nil)
	for r, n := 0, a.Cols; r < a.Rows; r++ {
		addVec(out.Data[r*n:(r+1)*n], a.Data[r*n:(r+1)*n], bias.Data)
	}
	if out.requiresGrad {
		out.backward = func() {
			n := a.Cols
			if a.requiresGrad {
				a.ensureGrad()
				addVec(a.Grad, a.Grad, out.Grad)
			}
			if bias.requiresGrad {
				// Each column's sum in row order, the columns side by side.
				bias.ensureGrad()
				for r := 0; r < a.Rows; r++ {
					addVec(bias.Grad, bias.Grad, out.Grad[r*n:(r+1)*n])
				}
			}
		}
	}
	return out
}

// Mul returns a*b elementwise.
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("mul", a, b)
	out := newResult(a.Rows, a.Cols, []*Tensor{a, b}, nil)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	if out.requiresGrad {
		out.backward = func() {
			if a.requiresGrad {
				a.ensureGrad()
				maddVec(a.Grad, out.Grad, b.Data)
			}
			if b.requiresGrad {
				b.ensureGrad()
				maddVec(b.Grad, out.Grad, a.Data)
			}
		}
	}
	return out
}

// Scale returns a*s.
func Scale(a *Tensor, s float64) *Tensor {
	out := newResult(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			axpyVec(a.Grad, out.Grad, s)
		}
	}
	return out
}

// ReLU returns max(0, a).
func ReLU(a *Tensor) *Tensor {
	out := newResult(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			reluGradVec(a.Grad, out.Grad, a.Data)
		}
	}
	return out
}

// Sigmoid returns 1/(1+exp(-a)).
func Sigmoid(a *Tensor) *Tensor {
	out := newResult(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i, v := range a.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range a.Grad {
				s := out.Data[i]
				a.Grad[i] += out.Grad[i] * s * (1 - s)
			}
		}
	}
	return out
}

// Tanh returns tanh(a).
func Tanh(a *Tensor) *Tensor {
	out := newResult(a.Rows, a.Cols, []*Tensor{a}, nil)
	for i, v := range a.Data {
		out.Data[i] = math.Tanh(v)
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range a.Grad {
				th := out.Data[i]
				a.Grad[i] += out.Grad[i] * (1 - th*th)
			}
		}
	}
	return out
}

// SoftmaxRows applies softmax independently to each row.
func SoftmaxRows(a *Tensor) *Tensor {
	out := newResult(a.Rows, a.Cols, []*Tensor{a}, nil)
	for r := 0; r < a.Rows; r++ {
		base := r * a.Cols
		maxV := math.Inf(-1)
		for c := 0; c < a.Cols; c++ {
			if a.Data[base+c] > maxV {
				maxV = a.Data[base+c]
			}
		}
		sum := 0.0
		for c := 0; c < a.Cols; c++ {
			e := math.Exp(a.Data[base+c] - maxV)
			out.Data[base+c] = e
			sum += e
		}
		for c := 0; c < a.Cols; c++ {
			out.Data[base+c] /= sum
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				base := r * a.Cols
				dot := 0.0
				for c := 0; c < a.Cols; c++ {
					dot += out.Grad[base+c] * out.Data[base+c]
				}
				for c := 0; c < a.Cols; c++ {
					a.Grad[base+c] += out.Data[base+c] * (out.Grad[base+c] - dot)
				}
			}
		}
	}
	return out
}

// Transpose returns a^T.
func Transpose(a *Tensor) *Tensor {
	out := newResult(a.Cols, a.Rows, []*Tensor{a}, nil)
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			out.Data[c*a.Rows+r] = a.Data[r*a.Cols+c]
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				for c := 0; c < a.Cols; c++ {
					a.Grad[r*a.Cols+c] += out.Grad[c*a.Rows+r]
				}
			}
		}
	}
	return out
}

// ConcatRows stacks tensors vertically (same Cols).
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		invariant.Fail("tensor: ConcatRows of nothing")
	}
	cols := ts[0].Cols
	rows := 0
	for _, t := range ts {
		if t.Cols != cols {
			invariant.Fail("tensor: ConcatRows column mismatch")
		}
		rows += t.Rows
	}
	out := newResult(rows, cols, ts, nil)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += len(t.Data)
	}
	if out.requiresGrad {
		out.backward = func() {
			off := 0
			for _, t := range ts {
				if t.requiresGrad {
					t.ensureGrad()
					for i := range t.Grad {
						t.Grad[i] += out.Grad[off+i]
					}
				}
				off += len(t.Data)
			}
		}
	}
	return out
}

// ConcatCols stacks tensors horizontally (same Rows).
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		invariant.Fail("tensor: ConcatCols of nothing")
	}
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			invariant.Fail("tensor: ConcatCols row mismatch")
		}
		cols += t.Cols
	}
	out := newResult(rows, cols, ts, nil)
	colOff := 0
	for _, t := range ts {
		for r := 0; r < rows; r++ {
			copy(out.Data[r*cols+colOff:r*cols+colOff+t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols])
		}
		colOff += t.Cols
	}
	if out.requiresGrad {
		out.backward = func() {
			colOff := 0
			for _, t := range ts {
				if t.requiresGrad {
					t.ensureGrad()
					for r := 0; r < rows; r++ {
						for c := 0; c < t.Cols; c++ {
							t.Grad[r*t.Cols+c] += out.Grad[r*cols+colOff+c]
						}
					}
				}
				colOff += t.Cols
			}
		}
	}
	return out
}

// SliceRows returns rows [lo,hi) as a new tensor in the graph.
func SliceRows(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Rows || lo >= hi {
		invariant.Failf("tensor: SliceRows [%d,%d) of %d rows", lo, hi, a.Rows)
	}
	out := newResult(hi-lo, a.Cols, []*Tensor{a}, nil)
	copy(out.Data, a.Data[lo*a.Cols:hi*a.Cols])
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[lo*a.Cols+i] += out.Grad[i]
			}
		}
	}
	return out
}

// MeanRows returns the column-wise mean as a 1 x Cols tensor.
func MeanRows(a *Tensor) *Tensor {
	out := newResult(1, a.Cols, []*Tensor{a}, nil)
	inv := 1.0 / float64(a.Rows)
	for r := 0; r < a.Rows; r++ {
		base := r * a.Cols
		for c := 0; c < a.Cols; c++ {
			out.Data[c] += a.Data[base+c] * inv
		}
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				base := r * a.Cols
				for c := 0; c < a.Cols; c++ {
					a.Grad[base+c] += out.Grad[c] * inv
				}
			}
		}
	}
	return out
}

// EmbeddingLookup gathers rows of table [vocab x dim] by ids; backward
// scatter-adds into the table.
func EmbeddingLookup(table *Tensor, ids []int) *Tensor {
	for _, id := range ids {
		if id < 0 || id >= table.Rows {
			invariant.Failf("tensor: embedding id %d out of [0,%d)", id, table.Rows)
		}
	}
	out := newResult(len(ids), table.Cols, []*Tensor{table}, nil)
	for i, id := range ids {
		copy(out.Data[i*table.Cols:(i+1)*table.Cols], table.Data[id*table.Cols:(id+1)*table.Cols])
	}
	if out.requiresGrad {
		out.backward = func() {
			table.ensureGrad()
			for i, id := range ids {
				for c := 0; c < table.Cols; c++ {
					table.Grad[id*table.Cols+c] += out.Grad[i*table.Cols+c]
				}
			}
		}
	}
	return out
}

// --- losses ---

// BCEWithLogits is mean binary cross entropy over all elements of logits
// against targets in {0,1} (the paper's multi-label delta-bitmap loss).
func BCEWithLogits(logits *Tensor, targets []float64) *Tensor {
	if len(targets) != len(logits.Data) {
		invariant.Fail("tensor: BCE target length mismatch")
	}
	out := newResult(1, 1, []*Tensor{logits}, nil)
	n := float64(len(targets))
	loss := 0.0
	for i, z := range logits.Data {
		// Numerically stable: max(z,0) - z*y + log(1+exp(-|z|))
		loss += math.Max(z, 0) - z*targets[i] + math.Log1p(math.Exp(-math.Abs(z)))
	}
	out.Data[0] = loss / n
	if out.requiresGrad {
		out.backward = func() {
			logits.ensureGrad()
			g := out.Grad[0] / n
			for i, z := range logits.Data {
				s := 1 / (1 + math.Exp(-z))
				logits.Grad[i] += g * (s - targets[i])
			}
		}
	}
	return out
}

// CrossEntropyLogits is softmax cross entropy of a 1 x C logits row against
// class index target (the paper's page-classification loss).
func CrossEntropyLogits(logits *Tensor, target int) *Tensor {
	if logits.Rows != 1 {
		invariant.Fail("tensor: CrossEntropyLogits wants a 1xC row")
	}
	if target < 0 || target >= logits.Cols {
		invariant.Failf("tensor: target %d out of [0,%d)", target, logits.Cols)
	}
	out := newResult(1, 1, []*Tensor{logits}, nil)
	maxV := math.Inf(-1)
	for _, v := range logits.Data {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for _, v := range logits.Data {
		sum += math.Exp(v - maxV)
	}
	logZ := math.Log(sum) + maxV
	out.Data[0] = logZ - logits.Data[target]
	if out.requiresGrad {
		out.backward = func() {
			logits.ensureGrad()
			g := out.Grad[0]
			for i, v := range logits.Data {
				p := math.Exp(v - logZ)
				y := 0.0
				if i == target {
					y = 1
				}
				logits.Grad[i] += g * (p - y)
			}
		}
	}
	return out
}

// SoftCrossEntropy is the knowledge-distillation loss: cross entropy of
// student logits (1 x C) against a teacher probability row, both softened by
// temperature T: loss = -Σ teacherProbs_i · log softmax(logits/T)_i · T².
func SoftCrossEntropy(logits *Tensor, teacherProbs []float64, temperature float64) *Tensor {
	if logits.Rows != 1 || len(teacherProbs) != logits.Cols {
		invariant.Fail("tensor: SoftCrossEntropy shape mismatch")
	}
	if temperature <= 0 {
		invariant.Fail("tensor: temperature must be positive")
	}
	out := newResult(1, 1, []*Tensor{logits}, nil)
	scaled := make([]float64, logits.Cols)
	maxV := math.Inf(-1)
	for i, v := range logits.Data {
		scaled[i] = v / temperature
		if scaled[i] > maxV {
			maxV = scaled[i]
		}
	}
	sum := 0.0
	for _, v := range scaled {
		sum += math.Exp(v - maxV)
	}
	logZ := math.Log(sum) + maxV
	loss := 0.0
	for i, p := range teacherProbs {
		loss -= p * (scaled[i] - logZ)
	}
	out.Data[0] = loss * temperature * temperature
	if out.requiresGrad {
		out.backward = func() {
			logits.ensureGrad()
			g := out.Grad[0] * temperature // T² · (1/T) from the chain rule
			for i := range logits.Data {
				q := math.Exp(scaled[i] - logZ)
				logits.Grad[i] += g * (q - teacherProbs[i])
			}
		}
	}
	return out
}

// MSE is the mean squared error between a and target values.
func MSE(a *Tensor, targets []float64) *Tensor {
	if len(targets) != len(a.Data) {
		invariant.Fail("tensor: MSE target length mismatch")
	}
	out := newResult(1, 1, []*Tensor{a}, nil)
	n := float64(len(targets))
	for i, v := range a.Data {
		d := v - targets[i]
		out.Data[0] += d * d / n
	}
	if out.requiresGrad {
		out.backward = func() {
			a.ensureGrad()
			g := out.Grad[0]
			for i, v := range a.Data {
				a.Grad[i] += g * 2 * (v - targets[i]) / n
			}
		}
	}
	return out
}

// The autograd element loops. Each body is the definition of its ...Fast
// leaf (train_amd64.go), which returns the same bits from a vector kernel
// where one exists.

// addVec sets o[i] = x[i] + y[i] over len(o) values; o may be x.
func addVec(o, x, y []float64) {
	if addVecFast(o, x, y) {
		return
	}
	x, y = x[:len(o)], y[:len(o)]
	for i := range o {
		o[i] = x[i] + y[i]
	}
}

// maddVec computes o[i] += x[i] * y[i] over len(o) values.
func maddVec(o, x, y []float64) {
	if maddVecFast(o, x, y) {
		return
	}
	x, y = x[:len(o)], y[:len(o)]
	for i := range o {
		o[i] += x[i] * y[i]
	}
}

// axpyVec computes o[i] += x[i] * s over len(o) values.
func axpyVec(o, x []float64, s float64) {
	if axpyVecFast(o, x, s) {
		return
	}
	x = x[:len(o)]
	for i := range o {
		o[i] += x[i] * s
	}
}

// reluGradVec computes o[i] += x[i] where y[i] > 0 over len(o) values.
func reluGradVec(o, x, y []float64) {
	if reluGradVecFast(o, x, y) {
		return
	}
	x, y = x[:len(o)], y[:len(o)]
	for i := range o {
		if y[i] > 0 {
			o[i] += x[i]
		}
	}
}

//mpgraph:noalloc
func checkSameShape[T float32 | float64](op string, a, b *Dense[T]) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		invariant.Failf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols)
	}
}
