package nn

import (
	"math"
	"math/rand"
	"testing"

	"mpgraph/internal/tensor"
)

// calibrate runs n random inputs through forward (the Q-layer in calibration
// mode) and returns the inputs for the post-freeze comparison.
func calibInputs(rows, cols, n int, rng *rand.Rand) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.Randn(rows, cols, 1, rng)
	}
	return xs
}

func maxRelErr(a, b *tensor.Tensor) float64 {
	var m, rng float64
	for i := range a.Data {
		if v := math.Abs(b.Data[i]); v > rng {
			rng = v
		}
	}
	if rng == 0 {
		rng = 1
	}
	for i := range a.Data {
		if e := math.Abs(a.Data[i]-b.Data[i]) / rng; e > m {
			m = e
		}
	}
	return m
}

func TestQLinearCalibrationDelegatesToFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(12, 8, rng)
	q := NewQLinear(l)
	ctx := tensor.NewCtx()
	x := tensor.Randn(3, 12, 1, rng)
	got := q.ForwardCtx(ctx, x)
	want := l.ForwardCtx(ctx, x)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("calibration forward diverges from float at %d", i)
		}
	}
}

func TestQLinearFrozenTracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(24, 16, rng)
	q := NewQLinear(l)
	ctx := tensor.NewCtx()
	for _, x := range calibInputs(4, 24, 16, rng) {
		q.ForwardCtx(ctx, x)
		ctx.Reset()
	}
	q.Freeze()
	x := tensor.Randn(4, 24, 1, rng)
	got := q.ForwardCtx(ctx, x)
	want := l.ForwardCtx(ctx, x)
	if e := maxRelErr(got, want); e > 0.05 {
		t.Fatalf("frozen QLinear rel error %g > 0.05", e)
	}
}

func TestQSelfAttentionFrozenTracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSelfAttention(16, 16, rng)
	q := NewQSelfAttention(s)
	ctx := tensor.NewCtx()
	for _, x := range calibInputs(6, 16, 16, rng) {
		q.ForwardCtx(ctx, x)
		ctx.Reset()
	}
	q.Freeze()
	x := tensor.Randn(6, 16, 1, rng)
	got := q.ForwardCtx(ctx, x)
	want := s.ForwardCtx(ctx, x)
	if e := maxRelErr(got, want); e > 0.05 {
		t.Fatalf("frozen QSelfAttention rel error %g > 0.05", e)
	}
}

func TestQTransformerLayerFrozenTracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tl := NewTransformerLayer(16, 2, rng)
	q := NewQTransformerLayer(tl)
	ctx := tensor.NewCtx()
	for _, x := range calibInputs(5, 16, 16, rng) {
		q.ForwardCtx(ctx, x)
		ctx.Reset()
	}
	q.Freeze()
	x := tensor.Randn(5, 16, 1, rng)
	got := q.ForwardCtx(ctx, x)
	want := tl.ForwardCtx(ctx, x)
	// LayerNorm renormalises, so int8 projection noise stays bounded.
	if e := maxRelErr(got, want); e > 0.15 {
		t.Fatalf("frozen QTransformerLayer rel error %g > 0.15", e)
	}
}

func TestQMLPFrozenTracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP([]int{20, 32, 10}, rng)
	q := NewQMLP(m)
	ctx := tensor.NewCtx()
	for _, x := range calibInputs(1, 20, 16, rng) {
		q.ForwardCtx(ctx, x)
		ctx.Reset()
	}
	q.Freeze()
	x := tensor.Randn(1, 20, 1, rng)
	got := q.ForwardCtx(ctx, x)
	want := m.ForwardCtx(ctx, x)
	if e := maxRelErr(got, want); e > 0.08 {
		t.Fatalf("frozen QMLP rel error %g > 0.08", e)
	}
}

func TestQMMAFFrozenTracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewMMAF(16, 16, rng)
	q := NewQMMAF(m)
	ctx := tensor.NewCtx()
	for i := 0; i < 16; i++ {
		a := tensor.Randn(3, 16, 1, rng)
		b := tensor.Randn(4, 16, 1, rng)
		q.ForwardBatchCtx2(ctx, a, b, 1)
		ctx.Reset()
	}
	q.Freeze()
	a := tensor.Randn(3, 16, 1, rng)
	b := tensor.Randn(4, 16, 1, rng)
	got := q.ForwardBatchCtx2(ctx, a, b, 1)
	want := m.ForwardBatchCtx2(ctx, a, b, 1)
	if e := maxRelErr(got, want); e > 0.05 {
		t.Fatalf("frozen QMMAF rel error %g > 0.05", e)
	}
}

func TestUncalibratedFreezeDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLinear(8, 4, rng)
	q := NewQLinear(l)
	q.Freeze() // never observed: scale guard must kick in
	ctx := tensor.NewCtx()
	out := q.ForwardCtx(ctx, tensor.Randn(1, 8, 1, rng))
	for _, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("uncalibrated frozen layer produced non-finite output")
		}
	}
}

func TestQuantizePerChannelTightensMaxError(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mkLayer := func() *Linear {
		l := NewLinear(16, 8, rng)
		// One wide column dominates the per-tensor scale.
		for i := 0; i < l.W.Rows; i++ {
			l.W.Data[i*l.W.Cols] *= 50
		}
		return l
	}
	perTensor := mkLayer()
	src := perTensor.W.Clone().Data
	perChannel := NewLinear(16, 8, rng)
	copy(perChannel.W.Data, src)
	copy(perChannel.B.Data, perTensor.B.Data)

	repT, err := Quantize(perTensor, 8)
	if err != nil {
		t.Fatal(err)
	}
	repC, err := QuantizePerChannel(perChannel, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !repC.PerChannel || repT.PerChannel {
		t.Fatal("PerChannel flag not recorded")
	}
	if repC.MaxError >= repT.MaxError {
		t.Fatalf("per-channel MaxError %g not tighter than per-tensor %g", repC.MaxError, repT.MaxError)
	}
	if repC.StorageBytes <= repT.StorageBytes {
		t.Fatalf("per-channel storage %d should charge for scales (per-tensor %d)", repC.StorageBytes, repT.StorageBytes)
	}
}

func TestQuantizedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := NewQLinear(NewLinear(16, 4, rng))
	if got, want := q.QuantizedBytes(), 16*4+8*4+8*4; got != want {
		t.Fatalf("QuantizedBytes = %d, want %d", got, want)
	}
}
