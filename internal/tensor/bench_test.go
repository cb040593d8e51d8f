package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func BenchmarkGEMM64(b *testing.B)  { benchGEMM(b, 64) }
func BenchmarkGEMM128(b *testing.B) { benchGEMM(b, 128) }
func BenchmarkGEMM256(b *testing.B) { benchGEMM(b, 256) }

func benchGEMM(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(n, n, 1, rng)
	y := Randn(n, n, 1, rng)
	b.SetBytes(int64(n * n * n * 2 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(64, 256, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(x)
	}
}

func BenchmarkBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w1 := Randn(32, 64, 0.1, rng).Param()
	w2 := Randn(64, 16, 0.1, rng).Param()
	x := Randn(8, 32, 1, rng)
	targets := make([]float64, 8*16)
	tp := NewTape([]*Tensor{w1, w2}) // as a trainer runs it
	defer tp.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := MSE(MatMul(ReLU(MatMul(x, w1)), w2), targets)
		if err := loss.Backward(); err != nil {
			b.Fatal(err)
		}
		w1.ZeroGrad()
		w2.ZeroGrad()
		tp.Reset()
	}
}

// BenchmarkGemmTN is the weight-gradient product dW += Xt.dY at the shapes a
// training step runs it: a [r x m] layer input against [r x n] output
// gradients — an encoder projection and the page head (r = 1: the pooled
// row) of the page models, and a d = 16 attention projection.
func BenchmarkGemmTN(b *testing.B) {
	for _, s := range [][3]int{{9, 32, 128}, {1, 32, 1024}, {9, 16, 16}} {
		r, m, n := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("r=%d/m=%d/n=%d", r, m, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, dy := randSlice(rng, r*m), randSlice(rng, r*n)
			dw := make([]float64, m*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemmTN(dw, x, dy, m, r, n)
			}
		})
	}
}

// BenchmarkGemmNT is the input-gradient product dA += dY.Wᵀ at the shapes a
// training step runs it: [m x k] output gradients against a [n x k] weight,
// reducing over k, the layer's output width. m = 1 is the pooled row under
// the page head (k = 1024) and the delta head (k = 126); m = 18 is a fused
// sequence under the feed-forward block's 32 → 64 expansion (k = 64) and a
// 16 → 32 projection (k = 32).
func BenchmarkGemmNT(b *testing.B) {
	for _, s := range [][3]int{{1, 1024, 32}, {1, 126, 32}, {18, 64, 32}, {18, 32, 16}} {
		m, k, n := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("m=%d/k=%d/n=%d", m, k, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			dy, w := randSlice(rng, m*k), randSlice(rng, n*k)
			da := make([]float64, m*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemmNT(da, dy, w, m, k, n)
			}
		})
	}
}

// benchModelShapes runs f on the attention shapes of an AMMA forward: T = 9
// (a modality encoder) and 2T = 18 (fusion, Transformer), d = 16 and 32, one
// session and a stacked batch of eight.
func benchModelShapes(b *testing.B, f func(b *testing.B, c *Ctx, t, d, blocks int)) {
	for _, t := range []int{9, 18} {
		for _, d := range []int{16, 32} {
			for _, blocks := range []int{1, 8} {
				b.Run(fmt.Sprintf("T=%d/d=%d/blocks=%d", t, d, blocks), func(b *testing.B) {
					b.ReportAllocs()
					f(b, NewCtx(), t, d, blocks)
				})
			}
		}
	}
}

func BenchmarkAttentionBlocks(b *testing.B) {
	benchModelShapes(b, func(b *testing.B, c *Ctx, t, d, blocks int) {
		rng := rand.New(rand.NewSource(1))
		q, k, v := Randn(blocks*t, d, 1, rng), Randn(blocks*t, d, 1, rng), Randn(blocks*t, d, 1, rng)
		scale := 1 / math.Sqrt(float64(d))
		for i := 0; i < b.N; i++ {
			AttentionBlocks(c, q, k, v, blocks, scale)
			c.Reset()
		}
	})
}

func BenchmarkAttentionBlocksF32(b *testing.B) {
	benchModelShapes(b, func(b *testing.B, c *Ctx, t, d, blocks int) {
		rng := rand.New(rand.NewSource(1))
		q, k, v := NarrowF32(Randn(blocks*t, d, 1, rng)), NarrowF32(Randn(blocks*t, d, 1, rng)), NarrowF32(Randn(blocks*t, d, 1, rng))
		scale := float32(1 / math.Sqrt(float64(d)))
		for i := 0; i < b.N; i++ {
			AttentionBlocks(c, q, k, v, blocks, scale)
			c.Reset()
		}
	})
}

func BenchmarkResidualLayerNorm(b *testing.B) {
	benchModelShapes(b, func(b *testing.B, c *Ctx, t, d, blocks int) {
		rng := rand.New(rand.NewSource(1))
		x, y := Randn(blocks*t, d, 1, rng), Randn(blocks*t, d, 1, rng)
		gain, bias := Randn(1, d, 1, rng), Randn(1, d, 1, rng)
		for i := 0; i < b.N; i++ {
			AddLayerNorm(c, x, y, gain, bias, 1e-5)
			c.Reset()
		}
	})
}

func BenchmarkResidualLayerNormF32(b *testing.B) {
	benchModelShapes(b, func(b *testing.B, c *Ctx, t, d, blocks int) {
		rng := rand.New(rand.NewSource(1))
		x, y := NarrowF32(Randn(blocks*t, d, 1, rng)), NarrowF32(Randn(blocks*t, d, 1, rng))
		gain, bias := NarrowF32(Randn(1, d, 1, rng)), NarrowF32(Randn(1, d, 1, rng))
		for i := 0; i < b.N; i++ {
			AddLayerNorm(c, x, y, gain, bias, 1e-5)
			c.Reset()
		}
	})
}

// The row-kernel ledger rows: the passes between the GEMM, attention and
// LayerNorm kernels, at the shapes an AMMA forward runs them
// (benchModelShapes; the token gathers over the SmallConfig page vocabulary
// of 1024), at both precisions.

// benchInput is a rows x cols tensor of standard normals on a ctx of its
// own, which the timed loop never resets.
func benchInput[T float32 | float64](rng *rand.Rand, rows, cols int) *Dense[T] {
	return randDense[T](NewCtx(), rng, rows, cols)
}

func benchMeanRows[T float32 | float64](b *testing.B) {
	benchModelShapes(b, func(b *testing.B, c *Ctx, t, d, blocks int) {
		a := benchInput[T](rand.New(rand.NewSource(1)), blocks*t, d)
		for i := 0; i < b.N; i++ {
			MeanRowsBatch(c, a, blocks)
			c.Reset()
		}
	})
}

func BenchmarkMeanRowsBatch(b *testing.B)    { benchMeanRows[float64](b) }
func BenchmarkMeanRowsBatchF32(b *testing.B) { benchMeanRows[float32](b) }

func benchAddPos[T float32 | float64](b *testing.B) {
	benchModelShapes(b, func(b *testing.B, c *Ctx, t, d, blocks int) {
		rng := rand.New(rand.NewSource(1))
		a, pos := benchInput[T](rng, blocks*t, d), benchInput[T](rng, t, d)
		for i := 0; i < b.N; i++ {
			AddPosBatch(c, a, pos, blocks)
			c.Reset()
		}
	})
}

func BenchmarkAddPosBatch(b *testing.B)    { benchAddPos[float64](b) }
func BenchmarkAddPosBatchF32(b *testing.B) { benchAddPos[float32](b) }

func benchEmbeddingPos[T float32 | float64](b *testing.B) {
	benchModelShapes(b, func(b *testing.B, c *Ctx, t, d, blocks int) {
		rng := rand.New(rand.NewSource(1))
		table, pos := benchInput[T](rng, 1024, d), benchInput[T](rng, t, d)
		ids := make([]int, blocks*t)
		for i := range ids {
			ids[i] = rng.Intn(1024)
		}
		for i := 0; i < b.N; i++ {
			EmbeddingPosBatch(c, table, ids, pos, blocks)
			c.Reset()
		}
	})
}

func BenchmarkEmbeddingPosBatch(b *testing.B)    { benchEmbeddingPos[float64](b) }
func BenchmarkEmbeddingPosBatchF32(b *testing.B) { benchEmbeddingPos[float32](b) }

// benchFirstAbove is the page decode's scan: a 1024-wide logit row against
// a worst entry nothing beats, so the scan runs to the end.
func benchFirstAbove[T float32 | float64](b *testing.B) {
	s := randOperands[T](rand.New(rand.NewSource(1)), 1024, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FirstAbove(s, 10)
	}
}

func BenchmarkFirstAbove(b *testing.B)    { benchFirstAbove[float64](b) }
func BenchmarkFirstAboveF32(b *testing.B) { benchFirstAbove[float32](b) }

// BenchmarkSigmoidWiden is the f32 delta head's hand-off over the
// SmallConfig delta head (2·63 classes), one session and a batch of eight.
func BenchmarkSigmoidWiden(b *testing.B) {
	for _, blocks := range []int{1, 8} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			logits := benchInput[float32](rand.New(rand.NewSource(1)), blocks, 126)
			c := NewCtx()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SigmoidWidenCtx(c, logits)
				c.Reset()
			}
		})
	}
}

// BenchmarkPanel1 is the m = 1 product (an MLP head, an LSTM step's recurrent
// half) at an LSTM gate's shape, the delta head's, and the page head's. The
// weights cycle through four panels, as an LSTM's four gates do, so a panel
// that does not fit L1 four times over is read from L2.
func BenchmarkPanel1(b *testing.B)    { benchPanel1[float64](b) }
func BenchmarkPanel1F32(b *testing.B) { benchPanel1[float32](b) }

func benchPanel1[T float32 | float64](b *testing.B) {
	for _, shape := range [][2]int{{64, 64}, {64, 256}, {32, 1024}} {
		k, n := shape[0], shape[1]
		b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			fill := func(size int) []T { return randOperands[T](rng, size, 0) }
			x, out := fill(k), make([]T, n)
			panels := [4][]T{fill(k * n), fill(k * n), fill(k * n), fill(k * n)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemmBatchBiasAct(out, x, panels[i&3], nil, 1, k, n, ActNone)
			}
		})
	}
}

// censusShapes are the (m, k, n) products one MPGraph sweep cell sends to the
// panel kernels at SmallConfig (experiments.TestPanelCensus prints them): the
// modality encoders' projections at m = T = WindowRows, the fusion and
// Transformer projections and FFN at m = 2T, the two pooled heads at m = 1.
// The attention blocks' own score and AV products run inside the attention
// kernel (attnBlockAsm) and are no longer panel products.
var censusShapes = []PanelShape{
	{9, 8, 16}, {9, 16, 16},
	{18, 16, 32}, {18, 32, 16}, {18, 32, 32}, {18, 32, 64}, {18, 64, 32},
	{1, 32, 126}, {1, 32, 1024},
}

// BenchmarkLinearAct is one biased projection through LinearAct at the census
// shapes, the window rows' products of an AMMA forward and the page head: the
// bias row seeds every output row inside the panel kernel.
func BenchmarkLinearAct(b *testing.B)    { benchLinearAct[float64](b) }
func BenchmarkLinearActF32(b *testing.B) { benchLinearAct[float32](b) }

func benchLinearAct[T float32 | float64](b *testing.B) {
	shapes := []PanelShape{{1, 32, 1024}}
	for _, m := range []int{9, 18} {
		for _, kn := range [][2]int{{16, 16}, {32, 16}, {32, 32}, {32, 64}} {
			shapes = append(shapes, PanelShape{m, kn[0], kn[1]})
		}
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("m=%d/k=%d/n=%d", s.M, s.K, s.N), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			operand := func(rows, cols int) *Dense[T] {
				return &Dense[T]{Rows: rows, Cols: cols, Data: randOperands[T](rng, rows*cols, 0)}
			}
			x, w, bias := operand(s.M, s.K), operand(s.K, s.N), operand(1, s.N)
			c := NewCtx()
			for range 2 { // the arena reaches its high-water mark
				LinearAct(c, x, w, bias, ActNone)
				c.Reset()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LinearAct(c, x, w, bias, ActNone)
				c.Reset()
			}
		})
	}
}

// BenchmarkPanelShapes is one panel product at every census shape. The m = 16
// and m = 4 rows are controls: no window-row tile takes them, so they read the
// four-row path a change to the tiles must leave alone.
func BenchmarkPanelShapes(b *testing.B)    { benchPanelShapes[float64](b) }
func BenchmarkPanelShapesF32(b *testing.B) { benchPanelShapes[float32](b) }

func benchPanelShapes[T float32 | float64](b *testing.B) {
	controls := []PanelShape{{16, 32, 16}, {16, 32, 32}, {4, 32, 32}}
	for _, s := range slices.Concat(censusShapes, controls) {
		b.Run(fmt.Sprintf("m=%d/k=%d/n=%d", s.M, s.K, s.N), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, w := randOperands[T](rng, s.M*s.K, 0), randOperands[T](rng, s.K*s.N, 0)
			out := make([]T, s.M*s.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemmBatchBiasAct(out, x, w, nil, s.M, s.K, s.N, ActNone)
			}
		})
	}
}
