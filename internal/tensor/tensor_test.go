package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gradCheck numerically verifies d(loss)/d(p) for every parameter in params
// against the autograd result, where forward rebuilds the graph from the
// params' current Data. It checks twice — on the heap, then with the
// parameters on a tape that is rewound after every forward — and the taped
// gradients must be the heap ones bit for bit.
func gradCheck(t *testing.T, name string, params []*Tensor, forward func() *Tensor) {
	t.Helper()
	heap := gradCheckOn(t, name, params, forward, func() {})
	tp := NewTape(params)
	defer tp.Release()
	taped := gradCheckOn(t, name+" (taped)", params, forward, tp.Reset)
	for pi := range heap {
		for i, g := range heap[pi] {
			if math.Float64bits(g) != math.Float64bits(taped[pi][i]) {
				t.Fatalf("%s: param %d elem %d: heap grad %g, taped grad %g", name, pi, i, g, taped[pi][i])
			}
		}
	}
}

// gradCheckOn runs one numerical check, calling reset after every forward
// whose value has been read, and returns a copy of the autograd gradients.
func gradCheckOn(t *testing.T, name string, params []*Tensor, forward func() *Tensor, reset func()) [][]float64 {
	t.Helper()
	loss := forward()
	if err := loss.Backward(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	reset()
	value := func() float64 {
		v := forward().Data[0]
		reset()
		return v
	}
	const h = 1e-6
	grads := make([][]float64, len(params))
	for pi, p := range params {
		if p.Grad == nil {
			t.Fatalf("%s: param %d has no grad", name, pi)
		}
		grads[pi] = append([]float64(nil), p.Grad...)
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + h
			up := value()
			p.Data[i] = orig - h
			down := value()
			p.Data[i] = orig
			numeric := (up - down) / (2 * h)
			got := p.Grad[i]
			if math.Abs(numeric-got) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s: param %d elem %d: autograd %g vs numeric %g", name, pi, i, got, numeric)
			}
		}
	}
	// Clear grads so repeated checks start clean.
	for _, p := range params {
		p.ZeroGrad()
	}
	return grads
}

func randParam(rng *rand.Rand, r, c int) *Tensor {
	return Randn(r, c, 0.5, rng).Param()
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randParam(rng, 3, 4), randParam(rng, 4, 2)
	gradCheck(t, "matmul", []*Tensor{a, b}, func() *Tensor {
		return MSE(MatMul(a, b), make([]float64, 6))
	})
}

func TestGradAddAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randParam(rng, 2, 3), randParam(rng, 2, 3)
	gradCheck(t, "add", []*Tensor{a, b}, func() *Tensor {
		return MSE(Add(a, b), []float64{1, 2, 3, 4, 5, 6})
	})
	x, bias := randParam(rng, 3, 2), randParam(rng, 1, 2)
	gradCheck(t, "addbias", []*Tensor{x, bias}, func() *Tensor {
		return MSE(AddBias(x, bias), make([]float64, 6))
	})
}

func TestGradMulScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randParam(rng, 2, 2), randParam(rng, 2, 2)
	gradCheck(t, "mul", []*Tensor{a, b}, func() *Tensor {
		return MSE(Mul(a, b), []float64{1, 0, -1, 2})
	})
	gradCheck(t, "scale", []*Tensor{a}, func() *Tensor {
		return MSE(Scale(a, -2.5), make([]float64, 4))
	})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 2, 3)
	gradCheck(t, "relu", []*Tensor{a}, func() *Tensor {
		return MSE(ReLU(a), []float64{1, 1, 1, 1, 1, 1})
	})
	gradCheck(t, "sigmoid", []*Tensor{a}, func() *Tensor {
		return MSE(Sigmoid(a), make([]float64, 6))
	})
	gradCheck(t, "tanh", []*Tensor{a}, func() *Tensor {
		return MSE(Tanh(a), make([]float64, 6))
	})
}

func TestGradSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randParam(rng, 2, 4)
	target := []float64{0.5, 0, 0.5, 0, 0, 1, 0, 0}
	gradCheck(t, "softmax", []*Tensor{a}, func() *Tensor {
		return MSE(SoftmaxRows(a), target)
	})
}

func TestGradTransposeConcatSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randParam(rng, 2, 3), randParam(rng, 2, 3)
	gradCheck(t, "transpose", []*Tensor{a}, func() *Tensor {
		return MSE(Transpose(a), make([]float64, 6))
	})
	gradCheck(t, "concatrows", []*Tensor{a, b}, func() *Tensor {
		return MSE(ConcatRows(a, b), make([]float64, 12))
	})
	gradCheck(t, "concatcols", []*Tensor{a, b}, func() *Tensor {
		return MSE(ConcatCols(a, b), make([]float64, 12))
	})
	gradCheck(t, "slicerows", []*Tensor{a}, func() *Tensor {
		return MSE(SliceRows(a, 1, 2), make([]float64, 3))
	})
	gradCheck(t, "meanrows", []*Tensor{a}, func() *Tensor {
		return MSE(MeanRows(a), make([]float64, 3))
	})
}

func TestGradEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	table := randParam(rng, 5, 3)
	ids := []int{1, 4, 1}
	gradCheck(t, "embedding", []*Tensor{table}, func() *Tensor {
		return MSE(EmbeddingLookup(table, ids), make([]float64, 9))
	})
}

func TestGradLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := randParam(rng, 1, 6)
	targets := []float64{1, 0, 1, 0, 0, 1}
	gradCheck(t, "bce", []*Tensor{logits}, func() *Tensor {
		return BCEWithLogits(logits, targets)
	})
	gradCheck(t, "ce", []*Tensor{logits}, func() *Tensor {
		return CrossEntropyLogits(logits, 3)
	})
	teacher := []float64{0.1, 0.2, 0.05, 0.4, 0.15, 0.1}
	gradCheck(t, "kd", []*Tensor{logits}, func() *Tensor {
		return SoftCrossEntropy(logits, teacher, 2.0)
	})
}

// A composite network exercising the full op set: grads must match numerics
// end to end.
func TestGradComposite(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randParam(rng, 4, 3)
	w1 := randParam(rng, 3, 5)
	b1 := randParam(rng, 1, 5)
	w2 := randParam(rng, 5, 4)
	gradCheck(t, "composite", []*Tensor{x, w1, b1, w2}, func() *Tensor {
		h := ReLU(AddBias(MatMul(x, w1), b1))
		attn := SoftmaxRows(Scale(MatMul(h, Transpose(h)), 0.5))
		ctx := MatMul(attn, h)
		out := MatMul(MeanRows(ctx), w2)
		return CrossEntropyLogits(out, 2)
	})
}

// Diamond graph: a tensor consumed by two branches must accumulate both
// gradient contributions.
func TestGradDiamond(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randParam(rng, 2, 2)
	gradCheck(t, "diamond", []*Tensor{a}, func() *Tensor {
		left := Sigmoid(a)
		right := Tanh(a)
		return MSE(Add(left, right), make([]float64, 4))
	})
}

func TestBackwardErrors(t *testing.T) {
	a := Zeros(2, 2)
	if err := a.Backward(); err == nil {
		t.Fatal("non-scalar Backward must fail")
	}
	s := Zeros(1, 1)
	if err := s.Backward(); err == nil {
		t.Fatal("graphless Backward must fail")
	}
}

func TestSetGradEnabled(t *testing.T) {
	a := Zeros(2, 2).Param()
	old := SetGradEnabled(false)
	defer SetGradEnabled(old)
	if SetGradEnabled(false) {
		t.Fatal("grad should be disabled")
	}
	out := Sigmoid(a)
	if out.RequiresGrad() || out.backward != nil {
		t.Fatal("no-grad mode must not build graph")
	}
	SetGradEnabled(true)
	out2 := Sigmoid(a)
	if !out2.RequiresGrad() {
		t.Fatal("grad mode must build graph")
	}
}

func TestShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		f()
	}
	a, b := Zeros(2, 3), Zeros(2, 2)
	expectPanic("matmul", func() { MatMul(a, b) })
	expectPanic("add", func() { Add(a, b) })
	expectPanic("addbias", func() { AddBias(a, Zeros(1, 2)) })
	expectPanic("mul", func() { Mul(a, b) })
	expectPanic("concatrows", func() { ConcatRows(a, b) })
	expectPanic("concatcols", func() { ConcatCols(a, Zeros(3, 3)) })
	expectPanic("slicerows", func() { SliceRows(a, 1, 1) })
	expectPanic("embedding", func() { EmbeddingLookup(a, []int{5}) })
	expectPanic("bce", func() { BCEWithLogits(a, []float64{1}) })
	expectPanic("ce-shape", func() { CrossEntropyLogits(a, 0) })
	expectPanic("ce-target", func() { CrossEntropyLogits(Zeros(1, 2), 7) })
	expectPanic("kd", func() { SoftCrossEntropy(Zeros(1, 2), []float64{1, 0}, 0) })
	expectPanic("mse", func() { MSE(a, []float64{1}) })
	expectPanic("new", func() { New(2, 2, []float64{1}) })
	expectPanic("concat-empty", func() { ConcatRows() })
}

func TestMatMulCorrectness(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := New(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("matmul[%d] = %g, want %g", i, c.Data[i], want[i])
		}
	}
}

// Property: the parallel GEMM matches a naive reference for random shapes.
func TestQuickGEMMMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := Randn(m, k, 1, rng)
		b := Randn(k, n, 1, rng)
		got := MatMul(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a.At(i, p) * b.At(p, j)
				}
				if math.Abs(s-got.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Parallel GEMM path (big matrices) must agree with the serial path.
func TestGEMMParallelPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := Randn(128, 96, 1, rng)
	b := Randn(96, 64, 1, rng)
	big := MatMul(a, b) // exceeds gemmParallelThreshold
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			if math.Abs(s-big.At(i, j)) > 1e-9 {
				t.Fatalf("parallel gemm mismatch at %d,%d", i, j)
			}
		}
	}
}

// Property: softmax rows are positive and sum to one.
func TestQuickSoftmaxRows(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 64 {
			vals = vals[:64]
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
			// Clamp to a sane logit range.
			vals[i] = math.Mod(vals[i], 50)
		}
		a := New(1, len(vals), vals)
		s := SoftmaxRows(a)
		sum := 0.0
		for _, v := range s.Data {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneDetachHelpers(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 3, 4}).Param()
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone must deep copy")
	}
	d := a.Detach()
	if d.RequiresGrad() {
		t.Fatal("Detach must drop grad")
	}
	d.Data[1] = 42
	if a.Data[1] != 42 {
		t.Fatal("Detach must share storage")
	}
	if a.MaxAbs() != 42 {
		t.Fatalf("MaxAbs = %g", a.MaxAbs())
	}
	if a.String() == "" {
		t.Fatal("String")
	}
	a.Set(0, 0, 7)
	if a.At(0, 0) != 7 {
		t.Fatal("At/Set")
	}
}

func TestGradNormalizeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randParam(rng, 3, 5)
	gradCheck(t, "normalize", []*Tensor{a}, func() *Tensor {
		return MSE(NormalizeRows(a, 1e-5), make([]float64, 15))
	})
}

func TestGradMulBias(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, g := randParam(rng, 3, 4), randParam(rng, 1, 4)
	gradCheck(t, "mulbias", []*Tensor{a, g}, func() *Tensor {
		return MSE(MulBias(a, g), make([]float64, 12))
	})
}

func TestNormalizeRowsStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := Randn(4, 16, 3, rng)
	out := NormalizeRows(a, 1e-8)
	for r := 0; r < out.Rows; r++ {
		mean, sq := 0.0, 0.0
		for c := 0; c < out.Cols; c++ {
			mean += out.At(r, c)
		}
		mean /= float64(out.Cols)
		for c := 0; c < out.Cols; c++ {
			d := out.At(r, c) - mean
			sq += d * d
		}
		sq /= float64(out.Cols)
		if math.Abs(mean) > 1e-9 || math.Abs(sq-1) > 1e-6 {
			t.Fatalf("row %d: mean %g var %g", r, mean, sq)
		}
	}
}
