package nn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mpgraph/internal/tensor"
)

// narrowInput narrows a float64 input into an arena f32 tensor.
func narrowInput(c *tensor.Ctx, x *tensor.Tensor) *tensor.F32Tensor {
	return tensor.NarrowCtx[float32](c, x)
}

// wantCloseF32 asserts the f32 mirror tracks the float64 reference within
// single-precision tolerance (absolute + relative, since attention and
// softmax compound roundings across layers).
func wantCloseF32(t *testing.T, name string, ref *tensor.Tensor, got *tensor.F32Tensor, tol float64) {
	t.Helper()
	if ref.Rows != got.Rows || ref.Cols != got.Cols {
		t.Fatalf("%s: shape (%d,%d) vs (%d,%d)", name, ref.Rows, ref.Cols, got.Rows, got.Cols)
	}
	for i := range ref.Data {
		diff := math.Abs(ref.Data[i] - float64(got.Data[i]))
		if diff > tol && diff > tol*math.Abs(ref.Data[i]) {
			t.Fatalf("%s: data[%d] = %g (f64) vs %g (f32)", name, i, ref.Data[i], got.Data[i])
		}
	}
}

// Every f32 mirror must track its float64 layer within single-precision
// tolerance: the tier is a precision change, not an architecture change.
func TestF32LayersMatchFloat(t *testing.T) {
	ctx := tensor.NewCtx()
	x := randInput(9, 16, 7)

	layers := []struct {
		name string
		tol  float64
		run  func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor)
	}{
		{"linear", 1e-5, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			l := NewLinear(16, 12, rand.New(rand.NewSource(1)))
			return l.ForwardCtx(c, x), NewF32Linear(l).ForwardCtx(c, narrowInput(c, x))
		}},
		{"layernorm", 1e-5, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			l := NewLayerNorm(16)
			return l.ForwardCtx(c, x), NewF32LayerNorm(l).ForwardCtx(c, narrowInput(c, x))
		}},
		{"selfattention", 1e-4, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			s := NewSelfAttention(16, 8, rand.New(rand.NewSource(2)))
			return s.ForwardCtx(c, x), NewF32SelfAttention(s).ForwardCtx(c, narrowInput(c, x))
		}},
		{"mhsa", 1e-4, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			m := NewMultiHeadSelfAttention(16, 4, rand.New(rand.NewSource(3)))
			return m.ForwardCtx(c, x), NewF32MultiHeadSelfAttention(m).ForwardCtx(c, narrowInput(c, x))
		}},
		{"ffn", 1e-4, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			f := NewFFN(16, 32, rand.New(rand.NewSource(4)))
			return f.ForwardCtx(c, x), NewF32FFN(f).ForwardCtx(c, narrowInput(c, x))
		}},
		{"transformer", 1e-3, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			tr := NewTransformerLayer(16, 4, rand.New(rand.NewSource(5)))
			return tr.ForwardCtx(c, x), NewF32TransformerLayer(tr).ForwardCtx(c, narrowInput(c, x))
		}},
		{"mmaf", 1e-4, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			m := NewMMAF(16, 8, rand.New(rand.NewSource(6)))
			xf := narrowInput(c, x)
			return m.ForwardCtx(c, x, x, 1), NewF32MMAF(m).ForwardCtx(c, xf, xf, 1)
		}},
		{"mlp", 1e-4, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			m := NewMLP([]int{16, 24, 8}, rand.New(rand.NewSource(7)))
			return m.ForwardCtx(c, x), NewF32MLP(m).ForwardCtx(c, narrowInput(c, x))
		}},
		{"lstm", 1e-4, func(c *tensor.Ctx) (*tensor.Tensor, *tensor.F32Tensor) {
			l := NewLSTM(16, 12, rand.New(rand.NewSource(8)))
			return l.ForwardCtx(c, x), NewF32LSTM(l).ForwardCtx(c, narrowInput(c, x))
		}},
	}
	for _, lt := range layers {
		ctx.Reset()
		ref, got := lt.run(ctx)
		wantCloseF32(t, lt.name, ref, got, lt.tol)
	}
}

// The f32 LSTM's sequential forward and blocks=1 batched forward share the
// cell-update structure, so they must agree bit for bit; a multi-block batch
// must equal each sequence scored alone.
func TestF32LSTMBatchMatchesSequential(t *testing.T) {
	ctx := tensor.NewCtx()
	l := NewF32LSTM(NewLSTM(10, 8, rand.New(rand.NewSource(9))))
	blocks, steps := 5, 6
	x := randInput(blocks*steps, 10, 11)
	xf := narrowInput(ctx, x)
	batched := l.ForwardBatchCtx(ctx, xf, blocks)
	for blk := 0; blk < blocks; blk++ {
		seq := tensor.ZerosCtx[float32](ctx, steps, 10)
		copy(seq.Data, xf.Data[blk*steps*10:(blk+1)*steps*10])
		solo := l.ForwardCtx(ctx, seq)
		for j := range solo.Data {
			if math.Float32bits(solo.Data[j]) != math.Float32bits(batched.Data[blk*8+j]) {
				t.Fatalf("block %d elem %d: solo %g != batched %g",
					blk, j, solo.Data[j], batched.Data[blk*8+j])
			}
		}
	}
}

// SaveF16 must halve parameter payload, round-trip losslessly after one
// precision cut, and produce values within half-precision distance of the
// originals.
func TestSaveF16RoundTrip(t *testing.T) {
	src := NewTransformerLayer(16, 4, rand.New(rand.NewSource(12)))
	var buf bytes.Buffer
	if err := SaveF16(&buf, src); err != nil {
		t.Fatalf("SaveF16: %v", err)
	}
	var f64buf bytes.Buffer
	if err := Save(&f64buf, src); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var elems int
	for _, p := range src.Params() {
		elems += len(p.Data)
	}
	if got, want := buf.Len(), f64buf.Len()-6*elems; got != want {
		t.Fatalf("f16 snapshot %d bytes, want %d (f64 %d minus 6 per element)", got, want, f64buf.Len())
	}

	dst := NewTransformerLayer(16, 4, rand.New(rand.NewSource(13)))
	if err := LoadF16(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatalf("LoadF16: %v", err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].Data {
			want := tensor.F16Float64(tensor.F16Bits(sp[i].Data[j]))
			if dp[i].Data[j] != want {
				t.Fatalf("param %d elem %d: loaded %g, want f16 rounding %g (orig %g)",
					i, j, dp[i].Data[j], want, sp[i].Data[j])
			}
			if math.Abs(dp[i].Data[j]-sp[i].Data[j]) > math.Abs(sp[i].Data[j])*2e-3+1e-7 {
				t.Fatalf("param %d elem %d: f16 value %g too far from %g",
					i, j, dp[i].Data[j], sp[i].Data[j])
			}
		}
	}

	// Second round trip is lossless: the values are already binary16.
	var buf2 bytes.Buffer
	if err := SaveF16(&buf2, dst); err != nil {
		t.Fatalf("SaveF16 round 2: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("second SaveF16 differs: f16 encode/decode is not idempotent")
	}
}

// The F32 layer names are instantiations of the float64 layers' one generic
// type, not copies of it: these stop compiling if the mirror is forked again.
var (
	_ *TransformerLayerOf[float32] = (*F32TransformerLayer)(nil)
	_ *TransformerLayerOf[float64] = (*TransformerLayer)(nil)
)

// TestF32NilCtxIsInferenceOnly pins the one run-time difference between the
// two instantiations: a nil ctx means autograd, which exists at float64
// only, so an f32 op or layer on a nil ctx fails the invariant.
func TestF32NilCtxIsInferenceOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.NarrowF32(randInput(9, 16, 12))
	w := tensor.NarrowF32(randInput(16, 16, 13))
	cases := map[string]func(){
		"op":          func() { tensor.LinearAct(nil, x, w, nil, tensor.ActNone) },
		"transformer": func() { NewF32TransformerLayer(NewTransformerLayer(16, 4, rng)).ForwardCtx(nil, x) },
		"lstm":        func() { NewF32LSTM(NewLSTM(16, 8, rng)).ForwardCtx(nil, x) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "inference-only") {
					t.Errorf("%s: f32 on a nil ctx recovered %q, want the inference-only invariant", name, msg)
				}
			}()
			call()
		}()
	}
	// The same calls at float64 are the autograd reference and must work.
	x64 := randInput(9, 16, 12)
	if out := NewTransformerLayer(16, 4, rng).ForwardCtx(nil, x64); out.Rows != 9 || out.Cols != 16 {
		t.Fatalf("float64 nil-ctx forward shape %dx%d", out.Rows, out.Cols)
	}
}
