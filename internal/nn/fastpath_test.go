package nn

import (
	"math"
	"math/rand"
	"testing"

	"mpgraph/internal/tensor"
)

// randInput builds a deterministic dense input.
func randInput(rows, cols int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	x := tensor.Zeros(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// wantClose asserts the fast-path output matches the autograd path within
// float reassociation tolerance (the fused kernels change summation order).
func wantClose(t *testing.T, name string, slow, fast *tensor.Tensor) {
	t.Helper()
	if slow.Rows != fast.Rows || slow.Cols != fast.Cols {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", name, slow.Rows, slow.Cols, fast.Rows, fast.Cols)
	}
	for i := range slow.Data {
		if math.Abs(slow.Data[i]-fast.Data[i]) > 1e-9 {
			t.Fatalf("%s: data[%d] = %g (slow) vs %g (fast)", name, i, slow.Data[i], fast.Data[i])
		}
	}
}

// Every layer's ForwardCtx with a live arena must reproduce the autograd
// Forward output: the fast path is a pure execution-strategy change.
func TestForwardCtxMatchesForward(t *testing.T) {
	ctx := tensor.NewCtx()
	x := randInput(9, 16, 7)

	layers := []struct {
		name string
		run  func(c *tensor.Ctx) *tensor.Tensor
	}{
		{"linear", func(c *tensor.Ctx) *tensor.Tensor {
			return NewLinear(16, 12, rand.New(rand.NewSource(1))).ForwardCtx(c, x)
		}},
		{"layernorm", func(c *tensor.Ctx) *tensor.Tensor {
			return NewLayerNorm(16).ForwardAddCtx(c, x, nil)
		}},
		{"selfattention", func(c *tensor.Ctx) *tensor.Tensor {
			return NewSelfAttention(16, 8, rand.New(rand.NewSource(2))).ForwardBatchCtx(c, x, 1)
		}},
		{"mhsa", func(c *tensor.Ctx) *tensor.Tensor {
			return NewMultiHeadSelfAttention(16, 4, rand.New(rand.NewSource(3))).ForwardBatchCtx(c, x, 1)
		}},
		{"ffn", func(c *tensor.Ctx) *tensor.Tensor {
			return NewFFN(16, 32, rand.New(rand.NewSource(4))).ForwardCtx(c, x)
		}},
		{"transformer", func(c *tensor.Ctx) *tensor.Tensor {
			return NewTransformerLayer(16, 4, rand.New(rand.NewSource(5))).ForwardCtx(c, x)
		}},
		{"mlp", func(c *tensor.Ctx) *tensor.Tensor {
			return NewMLP([]int{16, 24, 6}, rand.New(rand.NewSource(6))).ForwardCtx(c, x)
		}},
		{"lstm", func(c *tensor.Ctx) *tensor.Tensor {
			return NewLSTM(16, 12, rand.New(rand.NewSource(8))).ForwardCtx(c, x)
		}},
	}
	for _, l := range layers {
		slow := l.run(nil)
		fast := l.run(ctx)
		wantClose(t, l.name, slow, fast)
		ctx.Reset()
	}
}

// Embedding and MMAF take non-tensor inputs; checked separately.
func TestForwardCtxMatchesForwardComposite(t *testing.T) {
	ctx := tensor.NewCtx()

	e := NewEmbedding(10, 8, rand.New(rand.NewSource(9)))
	ids := []int{1, 4, 9, 0, 4}
	wantClose(t, "embedding", e.ForwardCtx(nil, ids), e.ForwardCtx(ctx, ids))
	ctx.Reset()

	m := NewMMAF(16, 12, rand.New(rand.NewSource(10)))
	a, b := randInput(9, 16, 11), randInput(9, 16, 12)
	slow := m.ForwardCtx(nil, a, b, 1)
	wantClose(t, "mmaf", slow, m.ForwardCtx(ctx, a, b, 1))
	ctx.Reset()

	// Repeated forwards after Reset must keep producing the same values
	// (arena reuse must not leak state between inferences).
	l := NewLinear(16, 12, rand.New(rand.NewSource(13)))
	x := randInput(9, 16, 14)
	first := l.ForwardCtx(ctx, x)
	snapshot := append([]float64(nil), first.Data...)
	ctx.Reset()
	second := l.ForwardCtx(ctx, x)
	for i := range snapshot {
		if math.Abs(snapshot[i]-second.Data[i]) > 0 {
			t.Fatalf("arena reuse changed output at %d: %g vs %g", i, snapshot[i], second.Data[i])
		}
	}
}
