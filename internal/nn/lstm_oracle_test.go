package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mpgraph/internal/tensor"
)

// referenceLinear2Act is the fused two-product gate the step loop below was
// written on, act(x1@w1 + x2@w2 + bias), composed of the two calls it was
// split into (tensor.TestLinearAccumMatchesFusedGate holds that pair to the
// fused kernels' bits).
func referenceLinear2Act[T float32 | float64](c *tensor.Ctx, x1, w1, x2, w2, bias *tensor.Dense[T], act tensor.Act) []T {
	out := tensor.LinearAccum(c, tensor.LinearAccum(c, nil, x1, w1, bias), x2, w2, bias)
	tensor.ApplyActFast(out, act)
	return out
}

// referenceLSTMForward is the forward ForwardBatchCtx replaced, step loop
// verbatim: every step gathers its input rows and runs each gate as one
// fused two-product op with its own activation.
func referenceLSTMForward[T float32 | float64](l *LSTMOf[T], ctx *tensor.Ctx, x *tensor.Dense[T], blocks int) *tensor.Dense[T] {
	t := x.Rows / blocks
	h := tensor.ZerosCtx[T](ctx, blocks, l.Hidden)
	c := tensor.ZerosCtx[T](ctx, blocks, l.Hidden)
	for step := 0; step < t; step++ {
		xt := tensor.ZerosCtx[T](ctx, blocks, x.Cols)
		for b := 0; b < blocks; b++ {
			copy(xt.Data[b*x.Cols:(b+1)*x.Cols], x.Data[(b*t+step)*x.Cols:])
		}
		i := referenceLinear2Act(ctx, xt, l.Wxi, h, l.Whi, l.Bi, tensor.ActSigmoid)
		f := referenceLinear2Act(ctx, xt, l.Wxf, h, l.Whf, l.Bf, tensor.ActSigmoid)
		g := referenceLinear2Act(ctx, xt, l.Wxg, h, l.Whg, l.Bg, tensor.ActTanh)
		o := referenceLinear2Act(ctx, xt, l.Wxo, h, l.Who, l.Bo, tensor.ActSigmoid)
		for j := range c.Data {
			cv := f[j]*c.Data[j] + i[j]*g[j]
			c.Data[j] = cv
			h.Data[j] = cv
		}
		tensor.ApplyActFast(h.Data, tensor.ActTanh)
		for j := range h.Data {
			h.Data[j] *= o[j]
		}
	}
	return h
}

// kernelPaths runs f on the machine's own kernels and with the portable
// scalar fallback forced.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run("native", f)
	t.Run("portable", func(t *testing.T) {
		defer tensor.ForcePortableKernels()()
		f(t)
	})
}

// sameBits reports whether a and b are the same float bit for bit (the
// widening of a float32 is exact). Two NaNs are the same whatever their sign
// and payload: which operand's NaN an x86 add returns depends on the order
// the compiler gave its operands, not on the source.
func sameBits[T float32 | float64](a, b T) bool {
	return a != a && b != b || math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

func wantLSTMBits[T float32 | float64](t *testing.T, name string, l *LSTMOf[T], ctx *tensor.Ctx, x *tensor.Dense[T], blocks int) {
	t.Helper()
	got := l.ForwardBatchCtx(ctx, x, blocks)
	want := referenceLSTMForward(l, ctx, x, blocks)
	for j := range want.Data {
		if !sameBits(got.Data[j], want.Data[j]) {
			t.Fatalf("%s: h[%d] = %x, reference %x", name, j,
				math.Float64bits(float64(got.Data[j])), math.Float64bits(float64(want.Data[j])))
		}
	}
}

// TestLSTMForwardMatchesReference: hoisting the input projection, the
// recurrence kernel of one sequence (tensor.LSTMSteps) and, for a batch,
// accumulating the recurrent product onto the hoisted one in place and
// alternating the gate order change no bit of any hidden state, at either
// precision, on either kernel family. The widths take every tile path of the
// kernel: only a ragged tile (1, 7), full tiles drained at the end of each
// step (32), one full tile and a ragged one whose second register is live (60
// at f32), full tiles carried across steps (64, 128: f32's eight registers,
// 256: the paper's LSTMHidden), full tiles drained before a ragged one whose
// second register is empty (100, 129) or live (60 at f64).
func TestLSTMForwardMatchesReference(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		ctx := tensor.NewCtx()
		for _, in := range []int{1, 9, 32} {
			for _, hidden := range []int{1, 7, 32, 60, 64, 100, 128, 129, 256} {
				l := NewLSTM(in, hidden, rand.New(rand.NewSource(int64(100*in+hidden))))
				for _, b := range []*tensor.Tensor{l.Bi, l.Bg, l.Bo} {
					copy(b.Data, randInput(1, hidden, 3).Data) // NewLSTM's zeros would hide where the bias enters
				}
				l32 := NewF32LSTM(l)
				for _, steps := range []int{1, 2, 9} {
					for _, blocks := range []int{1, 2, 3, 5, 8} {
						name := fmt.Sprintf("in=%d H=%d T=%d blocks=%d", in, hidden, steps, blocks)
						x := randInput(blocks*steps, in, int64(steps*blocks))
						wantLSTMBits(t, name+" f64", l, ctx, x, blocks)
						wantLSTMBits(t, name+" f32", l32, ctx, narrowInput(ctx, x), blocks)
						ctx.Reset()
					}
				}
			}
		}
	})
}

// TestLSTMPoisonReachesOutput plants one NaN or ±Inf in Wx, Wh or B of each
// gate in turn. The forward must do with it exactly what the reference does,
// and wherever the arithmetic makes a NaN of it the final hidden state — and
// so the head's logits and ScreenScores — must show one:
//   - a NaN in Wx or B poisons its gate at every step, on both families;
//   - in Wh, a NaN or ±Inf does so from step 0 on the panel kernels, which
//     multiply it by h0 = 0 (0·Inf = NaN: why step 0's recurrent product is
//     not skipped); the scalar kernels skip all-zero blocks of h, so there a
//     NaN arrives at step 1 and an Inf only saturates its gate;
//   - a ±Inf in Wx or B saturates its gate and leaves a finite state, as it
//     did before the hoist.
func TestLSTMPoisonReachesOutput(t *testing.T) {
	const in, hidden = 9, 12
	kernelPaths(t, func(t *testing.T) {
		ctx := tensor.NewCtx()
		// Which family is this: does a zero activation still meet the weight?
		zero, inf := tensor.ZerosCtx[float64](ctx, 1, 1), tensor.ZerosCtx[float64](ctx, 1, 1)
		inf.Data[0] = math.Inf(1)
		zeroMeetsWeight := math.IsNaN(tensor.LinearAct(ctx, zero, inf, nil, tensor.ActNone).Data[0])
		for _, steps := range []int{1, 9} {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for site := 0; site < 12; site++ { // Wx, Wh, B of gate site/3
					l := NewLSTM(in, hidden, rand.New(rand.NewSource(21)))
					p := l.Params()[site]
					p.Data[len(p.Data)-1] = bad // the last hidden unit's column
					l32 := NewF32LSTM(l)
					x := randInput(steps, in, 22)
					name := fmt.Sprintf("T=%d bad=%g param %d", steps, bad, site)
					wantLSTMBits(t, name+" f64", l, ctx, x, 1)
					wantLSTMBits(t, name+" f32", l32, ctx, narrowInput(ctx, x), 1)

					inWh := site%3 == 1
					if !(inWh && zeroMeetsWeight) && !(math.IsNaN(bad) && (!inWh || steps > 1)) {
						continue
					}
					v := l.ForwardCtx(ctx, x).Data[hidden-1]
					v32 := l32.ForwardCtx(ctx, narrowInput(ctx, x)).Data[hidden-1]
					if !math.IsNaN(v) || v32 == v32 {
						t.Fatalf("%s: poisoned unit came out as %g (f64), %g (f32)", name, v, v32)
					}
					ctx.Reset()
				}
			}
		}
	})
}

// BenchmarkLSTMForward is one forward over the T = 9 window at the two input
// widths the suite runs (Delta-LSTM's segments + PC, Voyager's page + PC
// embeddings), hidden 64, alone and as a stacked batch of eight.
func BenchmarkLSTMForward(b *testing.B) {
	for _, in := range []int{9, 32} {
		l := NewLSTM(in, 64, rand.New(rand.NewSource(1)))
		for _, blocks := range []int{1, 8} {
			x := randInput(blocks*9, in, 2)
			b.Run(fmt.Sprintf("in=%d/f64/blocks=%d", in, blocks), func(b *testing.B) { benchLSTMForward(b, l, x, blocks) })
			b.Run(fmt.Sprintf("in=%d/f32/blocks=%d", in, blocks), func(b *testing.B) {
				benchLSTMForward(b, NewF32LSTM(l), tensor.NarrowF32(x), blocks)
			})
		}
	}
}

func benchLSTMForward[T float32 | float64](b *testing.B, l *LSTMOf[T], x *tensor.Dense[T], blocks int) {
	ctx := tensor.NewCtx()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.ForwardBatchCtx(ctx, x, blocks)
		ctx.Reset()
	}
}
