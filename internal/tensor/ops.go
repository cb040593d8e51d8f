package tensor

import (
	"math"

	"mpgraph/internal/invariant"
)

// opCode names the autograd op that computed a node; backwardOp dispatches
// on it. Each op's payload — which of a node's arg, f, ids and saved it
// fills — is named at its definition.
type opCode uint8

const (
	opMatMul opCode = iota
	opAdd
	opAddBias
	opMul
	opScale // f: the factor
	opReLU
	opSigmoid
	opTanh
	opSoftmaxRows
	opTranspose
	opConcatRows
	opConcatCols
	opSliceRows // arg: the first row
	opMeanRows
	opEmbeddingLookup  // ids: a copy of the ids
	opBCEWithLogits    // saved: a copy of the targets
	opCrossEntropy     // arg: the target class; f: log Z
	opSoftCrossEntropy // f: the temperature; saved: softmax(logits/T) - teacher
	opMSE              // saved: a copy of the targets
	opNormalizeRows    // saved: each row's 1/std
	opMulBias
)

// backwardOp accumulates n's gradient into its operands' — the backward half
// of the op that made n, defined beside its forward. A leaf has none.
func backwardOp(n *Tensor) {
	if n.node == nil {
		return
	}
	switch n.node.op {
	case opMatMul:
		matMulBackward(n)
	case opAdd:
		addBackward(n)
	case opAddBias:
		addBiasBackward(n)
	case opMul:
		mulBackward(n)
	case opScale:
		scaleBackward(n)
	case opReLU:
		reluBackward(n)
	case opSigmoid:
		sigmoidBackward(n)
	case opTanh:
		tanhBackward(n)
	case opSoftmaxRows:
		softmaxRowsBackward(n)
	case opTranspose:
		transposeBackward(n)
	case opConcatRows:
		concatRowsBackward(n)
	case opConcatCols:
		concatColsBackward(n)
	case opSliceRows:
		sliceRowsBackward(n)
	case opMeanRows:
		meanRowsBackward(n)
	case opEmbeddingLookup:
		embeddingLookupBackward(n)
	case opBCEWithLogits:
		bceWithLogitsBackward(n)
	case opCrossEntropy:
		crossEntropyBackward(n)
	case opSoftCrossEntropy:
		softCrossEntropyBackward(n)
	case opMSE:
		mseBackward(n)
	case opNormalizeRows:
		normalizeRowsBackward(n)
	case opMulBias:
		mulBiasBackward(n)
	default:
		invariant.Failf("tensor: backward of unknown op %d", n.node.op)
	}
}

// MatMul returns a@b for a [m x k] and b [k x n].
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		invariant.Failf("tensor: matmul %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := newResult(opMatMul, a.Rows, b.Cols, a, b)
	gemm(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	return out
}

func matMulBackward(out *Tensor) {
	a, b := out.node.src[0], out.node.src[1]
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

// Add returns a+b elementwise (same shape).
func Add(a, b *Tensor) *Tensor {
	checkSameShape("add", a, b)
	out := newResult(opAdd, a.Rows, a.Cols, a, b)
	addVec(out.Data, a.Data, b.Data)
	return out
}

func addBackward(out *Tensor) {
	for _, p := range out.node.srcs {
		if p.requiresGrad {
			p.ensureGrad()
			addVec(p.Grad, p.Grad, out.Grad)
		}
	}
}

// AddBias adds row vector bias [1 x n] to every row of a [m x n].
func AddBias(a, bias *Tensor) *Tensor {
	if bias.Rows != 1 || bias.Cols != a.Cols {
		invariant.Failf("tensor: addbias %dx%d + %dx%d", a.Rows, a.Cols, bias.Rows, bias.Cols)
	}
	out := newResult(opAddBias, a.Rows, a.Cols, a, bias)
	for r, n := 0, a.Cols; r < a.Rows; r++ {
		addVec(out.Data[r*n:(r+1)*n], a.Data[r*n:(r+1)*n], bias.Data)
	}
	return out
}

func addBiasBackward(out *Tensor) {
	a, bias := out.node.src[0], out.node.src[1]
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

// Mul returns a*b elementwise.
func Mul(a, b *Tensor) *Tensor {
	checkSameShape("mul", a, b)
	out := newResult(opMul, a.Rows, a.Cols, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

func mulBackward(out *Tensor) {
	a, b := out.node.src[0], out.node.src[1]
	if a.requiresGrad {
		a.ensureGrad()
		maddVec(a.Grad, out.Grad, b.Data)
	}
	if b.requiresGrad {
		b.ensureGrad()
		maddVec(b.Grad, out.Grad, a.Data)
	}
}

// Scale returns a*s.
func Scale(a *Tensor, s float64) *Tensor {
	out := newResult(opScale, a.Rows, a.Cols, a, nil)
	if out.requiresGrad {
		out.node.f = s
	}
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

func scaleBackward(out *Tensor) {
	a := out.node.src[0]
	a.ensureGrad()
	axpyVec(a.Grad, out.Grad, out.node.f)
}

// ReLU returns max(0, a).
func ReLU(a *Tensor) *Tensor {
	out := newResult(opReLU, a.Rows, a.Cols, a, nil)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	return out
}

func reluBackward(out *Tensor) {
	a := out.node.src[0]
	a.ensureGrad()
	reluGradVec(a.Grad, out.Grad, a.Data)
}

// Sigmoid returns 1/(1+exp(-a)).
func Sigmoid(a *Tensor) *Tensor {
	out := newResult(opSigmoid, a.Rows, a.Cols, a, nil)
	for i, v := range a.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return out
}

func sigmoidBackward(out *Tensor) {
	a := out.node.src[0]
	a.ensureGrad()
	for i := range a.Grad {
		s := out.Data[i]
		a.Grad[i] += out.Grad[i] * s * (1 - s)
	}
}

// Tanh returns tanh(a).
func Tanh(a *Tensor) *Tensor {
	out := newResult(opTanh, a.Rows, a.Cols, a, nil)
	for i, v := range a.Data {
		out.Data[i] = math.Tanh(v)
	}
	return out
}

func tanhBackward(out *Tensor) {
	a := out.node.src[0]
	a.ensureGrad()
	for i := range a.Grad {
		th := out.Data[i]
		a.Grad[i] += out.Grad[i] * (1 - th*th)
	}
}

// SoftmaxRows applies softmax independently to each row.
func SoftmaxRows(a *Tensor) *Tensor {
	out := newResult(opSoftmaxRows, a.Rows, a.Cols, a, nil)
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
	return out
}

// softmaxRowsBackward reads the softmax from the node's own Data.
func softmaxRowsBackward(out *Tensor) {
	a := out.node.src[0]
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

// Transpose returns a^T.
func Transpose(a *Tensor) *Tensor {
	out := newResult(opTranspose, a.Cols, a.Rows, a, nil)
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			out.Data[c*a.Rows+r] = a.Data[r*a.Cols+c]
		}
	}
	return out
}

func transposeBackward(out *Tensor) {
	a := out.node.src[0]
	a.ensureGrad()
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			a.Grad[r*a.Cols+c] += out.Grad[c*a.Rows+r]
		}
	}
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
	out := newResultN(opConcatRows, rows, cols, ts)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += len(t.Data)
	}
	return out
}

func concatRowsBackward(out *Tensor) {
	off := 0
	for _, t := range out.node.srcs {
		if t.requiresGrad {
			t.ensureGrad()
			for i := range t.Grad {
				t.Grad[i] += out.Grad[off+i]
			}
		}
		off += len(t.Data)
	}
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
	out := newResultN(opConcatCols, rows, cols, ts)
	colOff := 0
	for _, t := range ts {
		for r := 0; r < rows; r++ {
			copy(out.Data[r*cols+colOff:r*cols+colOff+t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols])
		}
		colOff += t.Cols
	}
	return out
}

func concatColsBackward(out *Tensor) {
	rows, cols := out.Rows, out.Cols
	colOff := 0
	for _, t := range out.node.srcs {
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

// SliceRows returns rows [lo,hi) as a new tensor in the graph.
func SliceRows(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Rows || lo >= hi {
		invariant.Failf("tensor: SliceRows [%d,%d) of %d rows", lo, hi, a.Rows)
	}
	out := newResult(opSliceRows, hi-lo, a.Cols, a, nil)
	if out.requiresGrad {
		out.node.arg = lo
	}
	copy(out.Data, a.Data[lo*a.Cols:hi*a.Cols])
	return out
}

func sliceRowsBackward(out *Tensor) {
	a, lo := out.node.src[0], out.node.arg
	a.ensureGrad()
	for i := range out.Grad {
		a.Grad[lo*a.Cols+i] += out.Grad[i]
	}
}

// MeanRows returns the column-wise mean as a 1 x Cols tensor.
func MeanRows(a *Tensor) *Tensor {
	out := newResult(opMeanRows, 1, a.Cols, a, nil)
	inv := 1.0 / float64(a.Rows)
	for r := 0; r < a.Rows; r++ {
		base := r * a.Cols
		for c := 0; c < a.Cols; c++ {
			out.Data[c] += a.Data[base+c] * inv
		}
	}
	return out
}

func meanRowsBackward(out *Tensor) {
	a := out.node.src[0]
	inv := 1.0 / float64(a.Rows)
	a.ensureGrad()
	for r := 0; r < a.Rows; r++ {
		base := r * a.Cols
		for c := 0; c < a.Cols; c++ {
			a.Grad[base+c] += out.Grad[c] * inv
		}
	}
}

// EmbeddingLookup gathers rows of table [vocab x dim] by ids; backward
// scatter-adds into the table. The node keeps its own copy of ids, so a
// caller may reuse the slice.
func EmbeddingLookup(table *Tensor, ids []int) *Tensor {
	for _, id := range ids {
		if id < 0 || id >= table.Rows {
			invariant.Failf("tensor: embedding id %d out of [0,%d)", id, table.Rows)
		}
	}
	out := newResult(opEmbeddingLookup, len(ids), table.Cols, table, nil)
	for i, id := range ids {
		copy(out.Data[i*table.Cols:(i+1)*table.Cols], table.Data[id*table.Cols:(id+1)*table.Cols])
	}
	if out.requiresGrad {
		if out.tape != nil {
			out.node.ids = out.tape.ints.take(len(ids))
		} else {
			out.node.ids = make([]int, len(ids))
		}
		copy(out.node.ids, ids)
	}
	return out
}

func embeddingLookupBackward(out *Tensor) {
	table := out.node.src[0]
	table.ensureGrad()
	for i, id := range out.node.ids {
		for c := 0; c < table.Cols; c++ {
			table.Grad[id*table.Cols+c] += out.Grad[i*table.Cols+c]
		}
	}
}

// --- losses ---

// BCEWithLogits is mean binary cross entropy over all elements of logits
// against targets in {0,1} (the paper's multi-label delta-bitmap loss). The
// node keeps its own copy of targets.
func BCEWithLogits(logits *Tensor, targets []float64) *Tensor {
	if len(targets) != len(logits.Data) {
		invariant.Fail("tensor: BCE target length mismatch")
	}
	out := newResult(opBCEWithLogits, 1, 1, logits, nil)
	n := float64(len(targets))
	loss := 0.0
	for i, z := range logits.Data {
		// Numerically stable: max(z,0) - z*y + log(1+exp(-|z|))
		loss += math.Max(z, 0) - z*targets[i] + math.Log1p(math.Exp(-math.Abs(z)))
	}
	out.Data[0] = loss / n
	keepTargets(out, targets)
	return out
}

// keepTargets copies a loss's targets into its node, when it is in a graph.
func keepTargets(out *Tensor, targets []float64) {
	if out.requiresGrad {
		out.node.saved = scratch(out, len(targets))
		copy(out.node.saved, targets)
	}
}

func bceWithLogitsBackward(out *Tensor) {
	logits, targets := out.node.src[0], out.node.saved
	n := float64(len(targets))
	logits.ensureGrad()
	g := out.Grad[0] / n
	for i, z := range logits.Data {
		s := 1 / (1 + math.Exp(-z))
		logits.Grad[i] += g * (s - targets[i])
	}
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
	out := newResult(opCrossEntropy, 1, 1, logits, nil)
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
		out.node.arg, out.node.f = target, logZ
	}
	return out
}

func crossEntropyBackward(out *Tensor) {
	logits, target, logZ := out.node.src[0], out.node.arg, out.node.f
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
	out := newResult(opSoftCrossEntropy, 1, 1, logits, nil)
	scaled := scratch(out, logits.Cols)
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
		// The softened student distribution minus the teacher's, in place:
		// all backward reads of either.
		for i := range scaled {
			q := math.Exp(scaled[i] - logZ)
			scaled[i] = q - teacherProbs[i]
		}
		out.node.saved, out.node.f = scaled, temperature
	}
	return out
}

func softCrossEntropyBackward(out *Tensor) {
	logits := out.node.src[0]
	logits.ensureGrad()
	g := out.Grad[0] * out.node.f // T² · (1/T) from the chain rule
	for i, d := range out.node.saved {
		logits.Grad[i] += g * d
	}
}

// MSE is the mean squared error between a and target values. The node keeps
// its own copy of targets.
func MSE(a *Tensor, targets []float64) *Tensor {
	if len(targets) != len(a.Data) {
		invariant.Fail("tensor: MSE target length mismatch")
	}
	out := newResult(opMSE, 1, 1, a, nil)
	n := float64(len(targets))
	for i, v := range a.Data {
		d := v - targets[i]
		out.Data[0] += d * d / n
	}
	keepTargets(out, targets)
	return out
}

func mseBackward(out *Tensor) {
	a, targets := out.node.src[0], out.node.saved
	n := float64(len(targets))
	a.ensureGrad()
	g := out.Grad[0]
	for i, v := range a.Data {
		a.Grad[i] += g * 2 * (v - targets[i]) / n
	}
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
