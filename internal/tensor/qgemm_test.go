package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refQuantLinear computes act(deq(q(x)@W^T)+bias) the slow, obvious way:
// explicit per-element quantize, integer matmul, dequantize. The fused
// kernels must match it exactly — same grid, same int32 arithmetic.
func refQuantLinear(x *Tensor, scale float64, q *QTensor, bias *Tensor, act Act) *Tensor {
	out := Zeros(x.Rows, q.Out)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < q.Out; j++ {
			var acc int32
			for p := 0; p < q.In; p++ {
				xq := quantizeValue(x.At(i, p), 1/scale)
				acc += int32(xq) * int32(q.Data[j*q.In+p])
			}
			v := float64(acc) * scale * q.Scales[j]
			if bias != nil {
				v += bias.At(0, j)
			}
			out.Set(i, j, v)
		}
	}
	for i := 0; i < out.Rows; i++ {
		applyAct(out.Data[i*out.Cols:(i+1)*out.Cols], act)
	}
	return out
}

func TestQuantizeWeightsPerChannel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := Randn(13, 9, 1, rng)
	// Make channel ranges wildly different so a per-tensor scale would be
	// visibly lossier on the narrow channels.
	for i := 0; i < w.Rows; i++ {
		w.Data[i*w.Cols+0] *= 100
		w.Data[i*w.Cols+1] *= 0.01
	}
	q := QuantizeWeights(w)
	deq := q.Dequantize()
	for j := 0; j < w.Cols; j++ {
		var maxAbs, maxErr float64
		for i := 0; i < w.Rows; i++ {
			v := w.At(i, j)
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
			if e := math.Abs(v - deq.At(i, j)); e > maxErr {
				maxErr = e
			}
		}
		// Symmetric 8-bit rounding error is bounded by half a step.
		if step := QuantScale(maxAbs); maxErr > step/2+1e-12 {
			t.Fatalf("channel %d: reconstruction error %g exceeds half step %g", j, maxErr, step/2)
		}
	}
}

func TestQuantScaleGuards(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if s := QuantScale(v); s != 1 {
			t.Fatalf("QuantScale(%v) = %g, want guard value 1", v, s)
		}
	}
	if s := QuantScale(127); s != 1 {
		t.Fatalf("QuantScale(127) = %g, want 1", s)
	}
}

func TestQuantizeValueSaturates(t *testing.T) {
	if v := quantizeValue(1000, 1); v != qmax {
		t.Fatalf("positive saturation: got %d", v)
	}
	if v := quantizeValue(-1000, 1); v != -qmax {
		t.Fatalf("negative saturation: got %d", v)
	}
}

func TestQLinearActMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []struct{ m, k, n int }{
		{1, 5, 3}, {4, 16, 8}, {3, 33, 17}, {2, 7, 1},
	} {
		w := Randn(shape.k, shape.n, 0.5, rng)
		bias := Randn(1, shape.n, 0.1, rng)
		x := Randn(shape.m, shape.k, 1.5, rng)
		q := QuantizeWeights(w)
		scale := QuantScale(x.MaxAbs())
		for _, act := range []Act{ActNone, ActReLU, ActSigmoid, ActTanh} {
			want := refQuantLinear(x, scale, q, bias, act)
			ctx := NewCtx()
			for round := 0; round < 3; round++ {
				got := ctx.QLinearAct(x, scale, q, bias, act)
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("shape %v act %d round %d: fused[%d]=%g ref=%g",
							shape, act, round, i, got.Data[i], want.Data[i])
					}
				}
				ctx.Reset()
			}
			// The nil-ctx slow path must agree bit for bit too.
			var nilCtx *Ctx
			got := nilCtx.QLinearAct(x, scale, q, bias, act)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("shape %v act %d: nil-ctx[%d]=%g ref=%g", shape, act, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestQLinearActSWARMatchesVNNI forces the portable SWAR path on hardware
// where the VNNI assembly kernel is live and checks the two produce
// bit-identical output (both are exact int32, so any divergence is a packing
// or correction bug, not rounding). On machines without VNNI both sides run
// SWAR and the test degenerates to a self-check.
func TestQLinearActSWARMatchesVNNI(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, shape := range []struct{ m, k, n int }{
		{1, 5, 3}, {4, 16, 16}, {3, 33, 17}, {1, 32, 127}, {2, 30, 1024},
	} {
		w := Randn(shape.k, shape.n, 0.5, rng)
		bias := Randn(1, shape.n, 0.1, rng)
		x := Randn(shape.m, shape.k, 1.5, rng)
		scale := QuantScale(x.MaxAbs())

		qDefault := QuantizeWeights(w)
		saved := useVNNI
		useVNNI = false
		qSWAR := QuantizeWeights(w)
		useVNNI = saved

		if saved && qSWAR.vnni != nil {
			t.Fatal("SWAR-forced QTensor still carries a VNNI layout")
		}
		ctx := NewCtx()
		a := ctx.QLinearAct(x, scale, qDefault, bias, ActReLU)
		b := ctx.QLinearAct(x, scale, qSWAR, bias, ActReLU)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("shape %v: default[%d]=%g swar=%g", shape, i, a.Data[i], b.Data[i])
			}
		}
		ctx.Reset()
	}
}

// TestQuantizeRowFastMatchesScalar pins the vector quantizer to the scalar
// grid bit for bit across magnitudes, saturation, and tail lengths.
func TestQuantizeRowFastMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{1, 3, 7, 8, 9, 16, 33, 127} {
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64() * 3
		}
		src[0] = 1e6 // positive saturation
		if n > 1 {
			src[1] = -1e6 // negative saturation
		}
		inv := 1 / QuantScale(2.5)
		want := make([]int8, n)
		for i, v := range src {
			want[i] = quantizeValue(v, inv)
		}
		got := make([]int8, n)
		quantizeRowInto(got, src, inv)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d elt %d: fast %d scalar %d (src %g)", n, i, got[i], want[i], src[i])
			}
		}
	}
}

func TestQLinearActApproximatesFloat(t *testing.T) {
	// Quantized output should track the float linear closely relative to the
	// layer's output range — the layer-level guarantee the model parity
	// tests build on.
	rng := rand.New(rand.NewSource(23))
	w := Randn(32, 24, 0.4, rng)
	bias := Randn(1, 24, 0.1, rng)
	x := Randn(6, 32, 1, rng)
	q := QuantizeWeights(w)
	scale := QuantScale(x.MaxAbs())
	ctx := NewCtx()
	got := ctx.QLinearAct(x, scale, q, bias, ActNone)
	want := LinearAct(ctx, x, w, bias, ActNone)
	rangeAbs := want.MaxAbs()
	for i := range want.Data {
		if err := math.Abs(got.Data[i] - want.Data[i]); err > 0.05*rangeAbs {
			t.Fatalf("elt %d: quantized %g vs float %g (err %g, range %g)",
				i, got.Data[i], want.Data[i], err, rangeAbs)
		}
	}
}

func TestQuantizeActsSharedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := Randn(4, 10, 2, rng)
	scale := QuantScale(x.MaxAbs())
	ctx := NewCtx()
	xq := ctx.QuantizeActs(x, scale)
	if len(xq) != len(x.Data) {
		t.Fatalf("quantized buffer length %d != %d", len(xq), len(x.Data))
	}
	w := Randn(10, 6, 0.3, rng)
	q := QuantizeWeights(w)
	a := ctx.QLinearActQ(xq, x.Rows, scale, q, nil, ActNone)
	b := ctx.QLinearAct(x, scale, q, nil, ActNone)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("shared-buffer path diverges at %d: %g vs %g", i, a.Data[i], b.Data[i])
		}
	}
}

func TestQTensorStorageBytes(t *testing.T) {
	q := QuantizeWeights(Zeros(16, 4))
	if got, want := q.StorageBytes(), 16*4+8*4; got != want {
		t.Fatalf("StorageBytes = %d, want %d", got, want)
	}
}
