package nn

import (
	"math"
	"math/rand"
	"testing"

	"mpgraph/internal/tensor"
)

// tapeStepParams are the weights every tapeStepCase's loss reads.
func tapeStepParams(seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	p := func(r, c int) *tensor.Tensor { return tensor.Randn(r, c, 0.8, rng).Param() }
	// a, c [4x5], b [5x3], bias and gain [1x5], an embedding table [6x5].
	return []*tensor.Tensor{p(4, 5), p(5, 3), p(4, 5), p(1, 5), p(1, 5), p(6, 5)}
}

// scalarLoss reduces x to the scalar a step backpropagates from.
func scalarLoss(x *tensor.Tensor) *tensor.Tensor {
	targets := make([]float64, len(x.Data))
	for i := range targets {
		targets[i] = math.Sin(float64(i))
	}
	return tensor.MSE(x, targets)
}

// tapeStepCase is one autograd op inside a scalar loss. With clobber set,
// build overwrites every slice it handed an op — ids, operand lists, targets —
// once the op has returned, as a caller that reuses its buffers does; a node
// must have kept its own copy.
type tapeStepCase struct {
	name  string
	build func(p []*tensor.Tensor, clobber bool) *tensor.Tensor
}

func tapeStepCases() []tapeStepCase {
	unary := func(name string, op func(*tensor.Tensor) *tensor.Tensor) tapeStepCase {
		return tapeStepCase{name, func(p []*tensor.Tensor, _ bool) *tensor.Tensor { return scalarLoss(op(p[0])) }}
	}
	binary := func(name string, op func(a, b *tensor.Tensor) *tensor.Tensor, j int) tapeStepCase {
		return tapeStepCase{name, func(p []*tensor.Tensor, _ bool) *tensor.Tensor { return scalarLoss(op(p[0], p[j])) }}
	}
	concat := func(name string, op func(...*tensor.Tensor) *tensor.Tensor) tapeStepCase {
		return tapeStepCase{name, func(p []*tensor.Tensor, clobber bool) *tensor.Tensor {
			ts := []*tensor.Tensor{p[0], p[2], p[0]}
			out := op(ts...)
			if clobber {
				ts[0], ts[1], ts[2] = p[2], p[2], p[2]
			}
			return scalarLoss(out)
		}}
	}
	targetLoss := func(name string, op func(*tensor.Tensor, []float64) *tensor.Tensor) tapeStepCase {
		return tapeStepCase{name, func(p []*tensor.Tensor, clobber bool) *tensor.Tensor {
			targets := make([]float64, len(p[0].Data))
			for i := range targets {
				targets[i] = float64(i % 2)
			}
			out := op(p[0], targets)
			if clobber {
				clear(targets)
			}
			return out
		}}
	}
	row := func(p []*tensor.Tensor) *tensor.Tensor { return tensor.SliceRows(p[0], 1, 2) }
	return []tapeStepCase{
		binary("MatMul", tensor.MatMul, 1),
		binary("Add", tensor.Add, 2),
		binary("AddBias", tensor.AddBias, 3),
		binary("Mul", tensor.Mul, 2),
		binary("MulBias", tensor.MulBias, 4),
		unary("Scale", func(a *tensor.Tensor) *tensor.Tensor { return tensor.Scale(a, 0.37) }),
		unary("ReLU", tensor.ReLU),
		unary("Sigmoid", tensor.Sigmoid),
		unary("Tanh", tensor.Tanh),
		unary("SoftmaxRows", tensor.SoftmaxRows),
		unary("Transpose", tensor.Transpose),
		unary("SliceRows", func(a *tensor.Tensor) *tensor.Tensor { return tensor.SliceRows(a, 1, 3) }),
		unary("MeanRows", tensor.MeanRows),
		unary("NormalizeRows", func(a *tensor.Tensor) *tensor.Tensor { return tensor.NormalizeRows(a, 1e-5) }),
		concat("ConcatRows", tensor.ConcatRows),
		concat("ConcatCols", tensor.ConcatCols),
		{"EmbeddingLookup", func(p []*tensor.Tensor, clobber bool) *tensor.Tensor {
			ids := []int{5, 0, 2, 2}
			out := tensor.EmbeddingLookup(p[5], ids)
			if clobber {
				ids[0], ids[1], ids[2], ids[3] = 1, 1, 1, 1
			}
			return scalarLoss(out)
		}},
		targetLoss("BCEWithLogits", tensor.BCEWithLogits),
		targetLoss("MSE", tensor.MSE),
		{"CrossEntropyLogits", func(p []*tensor.Tensor, _ bool) *tensor.Tensor {
			return tensor.CrossEntropyLogits(row(p), 3)
		}},
		{"SoftCrossEntropy", func(p []*tensor.Tensor, clobber bool) *tensor.Tensor {
			teacher := []float64{0.1, 0.2, 0.3, 0.15, 0.25}
			out := tensor.SoftCrossEntropy(row(p), teacher, 2)
			if clobber {
				clear(teacher)
			}
			return out
		}},
	}
}

// sameFloatBits fails unless got and want hold the same float64 bits.
func sameFloatBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%g), want %x (%g)", what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestTapeStepMatchesHeapStep: for every autograd op, a loss built on a tape
// (by a caller that reuses its slices) and the same loss built off it give
// the same loss value and gradients at each of three Adam steps, and the
// same weights after them, bit for bit.
func TestTapeStepMatchesHeapStep(t *testing.T) {
	for _, c := range tapeStepCases() {
		heap, taped := tapeStepParams(7), tapeStepParams(7)
		tp := tensor.NewTape(taped)
		heapAdam, tapedAdam := NewAdam(0.05), NewAdam(0.05)
		for step := 0; step < 3; step++ {
			want, got := c.build(heap, false), c.build(taped, true)
			sameFloatBits(t, c.name+" loss", got.Data, want.Data)
			if err := want.Backward(); err != nil {
				t.Fatal(err)
			}
			if err := got.Backward(); err != nil {
				t.Fatal(err)
			}
			for i := range heap {
				sameFloatBits(t, c.name+" gradient", taped[i].Grad, heap[i].Grad)
			}
			heapAdam.Step(heap)
			tapedAdam.Step(taped)
			ZeroParamGrads(heap)
			ZeroParamGrads(taped)
			tp.Reset()
		}
		for i := range heap {
			sameFloatBits(t, c.name+" weights", taped[i].Data, heap[i].Data)
		}
		tp.Release()
	}
}
