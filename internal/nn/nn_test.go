package nn

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mpgraph/internal/tensor"
)

func TestLinearShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(4, 3, rng)
	x := tensor.Randn(5, 4, 1, rng)
	y := l.Forward(x)
	if y.Rows != 5 || y.Cols != 3 {
		t.Fatalf("shape %dx%d, want 5x3", y.Rows, y.Cols)
	}
	if len(l.Params()) != 2 {
		t.Fatal("params")
	}
}

func TestEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEmbedding(10, 4, rng)
	out := e.Forward([]int{3, 3, 7})
	if out.Rows != 3 || out.Cols != 4 {
		t.Fatal("shape")
	}
	for c := 0; c < 4; c++ {
		if out.At(0, c) != out.At(1, c) {
			t.Fatal("same id must give same row")
		}
	}
	if e.Vocab() != 10 {
		t.Fatal("vocab")
	}
}

func TestLayerNormOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ln := NewLayerNorm(8)
	x := tensor.Randn(4, 8, 5, rng)
	y := ln.Forward(x)
	// With gain=1, bias=0 each row is standardised.
	for r := 0; r < y.Rows; r++ {
		mean := 0.0
		for c := 0; c < 8; c++ {
			mean += y.At(r, c)
		}
		if math.Abs(mean/8) > 1e-9 {
			t.Fatalf("row %d mean %g", r, mean/8)
		}
	}
}

func TestAttentionShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sa := NewSelfAttention(6, 8, rng)
	x := tensor.Randn(9, 6, 1, rng)
	y := sa.Forward(x)
	if y.Rows != 9 || y.Cols != 8 {
		t.Fatalf("self-attention shape %dx%d", y.Rows, y.Cols)
	}
	msa := NewMultiHeadSelfAttention(8, 4, rng)
	z := msa.Forward(y)
	if z.Rows != 9 || z.Cols != 8 {
		t.Fatalf("MSA shape %dx%d", z.Rows, z.Cols)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dim not divisible by heads must panic")
		}
	}()
	NewMultiHeadSelfAttention(10, 4, rng)
}

func TestMMAFFusesModalities(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMMAF(6, 12, rng)
	addr := tensor.Randn(9, 6, 1, rng)
	pc := tensor.Randn(9, 6, 1, rng)
	out := m.ForwardCtx(nil, addr, pc, 1)
	if out.Rows != 18 || out.Cols != 12 {
		t.Fatalf("MMAF shape %dx%d, want 18x12", out.Rows, out.Cols)
	}
}

func TestTransformerLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tl := NewTransformerLayer(16, 4, rng)
	x := tensor.Randn(7, 16, 1, rng)
	y := tl.Forward(x)
	if y.Rows != 7 || y.Cols != 16 {
		t.Fatal("transformer must preserve shape")
	}
	if CountParams(tl) == 0 {
		t.Fatal("no params")
	}
}

func TestMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP([]int{8, 16, 4}, rng)
	y := m.Forward(tensor.Randn(2, 8, 1, rng))
	if y.Rows != 2 || y.Cols != 4 {
		t.Fatal("mlp shape")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short widths must panic")
		}
	}()
	NewMLP([]int{3}, rng)
}

func TestLSTMShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM(5, 12, rng)
	h := l.Forward(tensor.Randn(9, 5, 1, rng))
	if h.Rows != 1 || h.Cols != 12 {
		t.Fatalf("lstm out %dx%d", h.Rows, h.Cols)
	}
	if len(l.Params()) != 12 {
		t.Fatal("lstm param count")
	}
}

// A tiny attention classifier must learn a separable toy task, proving
// forward+backward+Adam work together.
func TestTrainingLearnsToyTask(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sa := NewSelfAttention(4, 8, rng)
	head := NewMLP([]int{8, 2}, rng)
	params := append(sa.Params(), head.Params()...)
	opt := NewAdam(0.01)

	// Task: class = whether the first feature of the last row is positive.
	sample := func() (*tensor.Tensor, int) {
		x := tensor.Randn(5, 4, 1, rng)
		label := 0
		if x.At(4, 0) > 0 {
			label = 1
		}
		return x, label
	}
	forward := func(x *tensor.Tensor) *tensor.Tensor {
		h := sa.Forward(x)
		return head.Forward(tensor.SliceRows(h, 4, 5))
	}
	for step := 0; step < 300; step++ {
		x, label := sample()
		loss := tensor.CrossEntropyLogits(forward(x), label)
		if err := loss.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step(params)
		for _, p := range params {
			p.ZeroGrad()
		}
	}
	correct := 0
	for i := 0; i < 200; i++ {
		x, label := sample()
		out := forward(x)
		pred := 0
		if out.At(0, 1) > out.At(0, 0) {
			pred = 1
		}
		if pred == label {
			correct++
		}
	}
	if correct < 160 {
		t.Fatalf("toy accuracy %d/200, want >= 160", correct)
	}
}

// The LSTM must learn a short memory task (copy first input's sign).
func TestLSTMLearnsMemoryTask(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewLSTM(2, 8, rng)
	head := NewMLP([]int{8, 2}, rng)
	params := append(l.Params(), head.Params()...)
	opt := NewAdam(0.02)
	sample := func() (*tensor.Tensor, int) {
		x := tensor.Randn(4, 2, 1, rng)
		label := 0
		if x.At(0, 0) > 0 {
			label = 1
		}
		return x, label
	}
	for step := 0; step < 400; step++ {
		x, label := sample()
		loss := tensor.CrossEntropyLogits(head.Forward(l.Forward(x)), label)
		if err := loss.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step(params)
		for _, p := range params {
			p.ZeroGrad()
		}
	}
	correct := 0
	for i := 0; i < 200; i++ {
		x, label := sample()
		out := head.Forward(l.Forward(x))
		pred := 0
		if out.At(0, 1) > out.At(0, 0) {
			pred = 1
		}
		if pred == label {
			correct++
		}
	}
	if correct < 150 {
		t.Fatalf("lstm memory accuracy %d/200", correct)
	}
}

func TestAdamReducesLossDeterministically(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLinear(3, 1, rng)
	opt := NewAdam(0.05)
	x := tensor.Randn(16, 3, 1, rng)
	targets := make([]float64, 16)
	for i := 0; i < 16; i++ {
		targets[i] = 2*x.At(i, 0) - x.At(i, 1)
	}
	var first, last float64
	for step := 0; step < 200; step++ {
		loss := tensor.MSE(l.Forward(x), targets)
		if step == 0 {
			first = loss.Data[0]
		}
		last = loss.Data[0]
		if err := loss.Backward(); err != nil {
			t.Fatal(err)
		}
		opt.Step(l.Params())
		zeroGrads(l)
	}
	if last > first/10 {
		t.Fatalf("loss %g -> %g: Adam not converging", first, last)
	}
}

// TestGradClipping: clipped steps are the unclipped steps on the gradients
// rescaled to norm ClipNorm (direction preserved), bit for bit, and Step
// leaves the gradients themselves as they were.
func TestGradClipping(t *testing.T) {
	grads := [][]float64{{300, 400}, {30, -40}} // norms 500 and 50
	run := func(clip float64, grad func(g []float64) []float64) (*tensor.Tensor, []float64) {
		p := tensor.New(1, 2, []float64{0, 0}).Param()
		opt := NewAdam(1)
		opt.ClipNorm = clip
		for _, g := range grads {
			p.Grad = grad(slices.Clone(g))
			opt.Step([]*tensor.Tensor{p})
		}
		return p, p.Data
	}
	p, got := run(5, func(g []float64) []float64 { return g })
	if p.Grad[0] != 30 || p.Grad[1] != -40 {
		t.Fatalf("Step rewrote the gradients: %v", p.Grad)
	}
	_, want := run(0, func(g []float64) []float64 {
		scale := 5 / math.Hypot(g[0], g[1])
		for i := range g {
			g[i] *= scale
		}
		if norm := math.Hypot(g[0], g[1]); math.Abs(norm-5) > 1e-9 {
			t.Fatalf("rescaled norm %g, want 5", norm)
		}
		return g
	})
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("clipped step p[%d] = %.17g, step on rescaled gradients %.17g", i, got[i], want[i])
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := NewTransformerLayer(8, 2, rng)
	dst := NewTransformerLayer(8, 2, rand.New(rand.NewSource(99)))
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, dst); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].Data {
			if sp[i].Data[j] != dp[i].Data[j] {
				t.Fatalf("param %d differs after load", i)
			}
		}
	}
	// Shape mismatch must be rejected.
	other := NewTransformerLayer(16, 2, rng)
	var buf2 bytes.Buffer
	if err := Save(&buf2, src); err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf2, other); err == nil {
		t.Fatal("shape mismatch must fail")
	}
	if err := Load(bytes.NewReader(make([]byte, 32)), dst); err == nil {
		t.Fatal("bad magic must fail")
	}
}

func TestCopyParams(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewLinear(3, 3, rng)
	b := NewLinear(3, 3, rng)
	if err := CopyParams(b, a); err != nil {
		t.Fatal(err)
	}
	if a.W.Data[0] != b.W.Data[0] {
		t.Fatal("copy failed")
	}
	c := NewLinear(4, 3, rng)
	if err := CopyParams(c, a); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}

func TestQuantize(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := NewLinear(8, 8, rng)
	before := m.W.Clone()
	rep, err := Quantize(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Params != CountParams(m) {
		t.Fatal("param count")
	}
	if rep.StorageBytes != rep.Params {
		t.Fatalf("8-bit storage %d bytes for %d params", rep.StorageBytes, rep.Params)
	}
	// Error bound: half a quantization step of the per-tensor scale.
	maxStep := before.MaxAbs() / 127
	if rep.MaxError > maxStep/2+1e-12 {
		t.Fatalf("max error %g exceeds half-step %g", rep.MaxError, maxStep/2)
	}
	if _, err := Quantize(m, 1); err == nil {
		t.Fatal("1-bit must be rejected")
	}
	if StorageBytes(m, 8) != CountParams(m) {
		t.Fatal("StorageBytes")
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

// Property: quantization error never exceeds half the per-tensor step for
// any bit width.
func TestQuickQuantizeErrorBound(t *testing.T) {
	f := func(seed int64, rawBits uint8) bool {
		bits := int(rawBits)%15 + 2
		rng := rand.New(rand.NewSource(seed))
		m := NewLinear(4, 4, rng)
		maxAbs := 0.0
		for _, p := range m.Params() {
			if a := p.MaxAbs(); a > maxAbs {
				maxAbs = a
			}
		}
		rep, err := Quantize(m, bits)
		if err != nil {
			return false
		}
		step := maxAbs / (float64(int(1)<<(bits-1)) - 1)
		return rep.MaxError <= step/2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroGradsAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := NewLinear(2, 2, rng)
	if CountParams(l) != 6 {
		t.Fatalf("CountParams = %d, want 6", CountParams(l))
	}
	loss := tensor.MSE(l.Forward(tensor.Randn(1, 2, 1, rng)), []float64{0, 0})
	if err := loss.Backward(); err != nil {
		t.Fatal(err)
	}
	zeroGrads(l)
	for _, p := range l.Params() {
		for _, g := range p.Grad {
			if g != 0 {
				t.Fatal("grads not zeroed")
			}
		}
	}
}

// layerGradCheck numerically verifies the full backward pass through a
// layer's parameters: on the heap, then with the parameters on a tape that is
// rewound after every forward.
func layerGradCheck(t *testing.T, name string, m Module, forward func() *tensor.Tensor) {
	t.Helper()
	layerGradCheckOn(t, name, m, forward, func() {})
	tp := tensor.NewTape(m.Params())
	defer tp.Release()
	layerGradCheckOn(t, name+" (taped)", m, forward, tp.Reset)
}

// layerGradCheckOn is one numerical check; reset runs after every forward
// whose value has been read.
func layerGradCheckOn(t *testing.T, name string, m Module, forward func() *tensor.Tensor, reset func()) {
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
	for pi, p := range m.Params() {
		if p.Grad == nil {
			t.Fatalf("%s: param %d missing grad", name, pi)
		}
		// Spot-check a few elements per parameter to keep runtime sane.
		step := len(p.Data)/5 + 1
		for i := 0; i < len(p.Data); i += step {
			orig := p.Data[i]
			p.Data[i] = orig + h
			up := value()
			p.Data[i] = orig - h
			down := value()
			p.Data[i] = orig
			numeric := (up - down) / (2 * h)
			if diff := numeric - p.Grad[i]; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("%s: param %d elem %d: autograd %g numeric %g", name, pi, i, p.Grad[i], numeric)
			}
		}
	}
	zeroGrads(m)
}

func TestGradLSTMLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewLSTM(3, 4, rng)
	x := tensor.Randn(4, 3, 1, rng)
	layerGradCheck(t, "lstm", l, func() *tensor.Tensor {
		return tensor.MSE(l.Forward(x), make([]float64, 4))
	})
}

func TestGradSelfAttentionLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	sa := NewSelfAttention(4, 6, rng)
	x := tensor.Randn(5, 4, 1, rng)
	layerGradCheck(t, "selfattention", sa, func() *tensor.Tensor {
		return tensor.MSE(sa.Forward(x), make([]float64, 30))
	})
}

func TestGradTransformerLayerFull(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tl := NewTransformerLayer(8, 2, rng)
	x := tensor.Randn(3, 8, 1, rng)
	layerGradCheck(t, "transformer", tl, func() *tensor.Tensor {
		return tensor.MSE(tl.Forward(x), make([]float64, 24))
	})
}

func TestGradMMAFLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := NewMMAF(4, 6, rng)
	a := tensor.Randn(3, 4, 1, rng)
	b := tensor.Randn(3, 4, 1, rng)
	layerGradCheck(t, "mmaf", m, func() *tensor.Tensor {
		return tensor.MSE(m.ForwardCtx(nil, a, b, 1), make([]float64, 36))
	})
}

// zeroGrads clears the gradients of all of m's parameters.
func zeroGrads(m Module) { ZeroParamGrads(m.Params()) }
