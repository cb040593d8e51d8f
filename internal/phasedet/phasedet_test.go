package phasedet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKSStatisticBasics(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	if d := KSStatistic(same, same); d != 0 {
		t.Fatalf("identical samples D = %g, want 0", d)
	}
	a := []float64{1, 2, 3}
	b := []float64{10, 11, 12}
	if d := KSStatistic(a, b); d != 1 {
		t.Fatalf("disjoint samples D = %g, want 1", d)
	}
	// Closed form: a={1,3}, b={2,4}: CDFs differ by 0.5 at x in [1,2),[2,3)...
	if d := KSStatistic([]float64{1, 3}, []float64{2, 4}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("D = %g, want 0.5", d)
	}
	if d := KSStatistic(nil, a); d != 0 {
		t.Fatal("empty sample D must be 0")
	}
}

func TestKSStatisticSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 40)
	b := make([]float64, 25)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64() + 1
	}
	if math.Abs(KSStatistic(a, b)-KSStatistic(b, a)) > 1e-12 {
		t.Fatal("K-S must be symmetric")
	}
}

// Property: D ∈ [0,1] and shifting one sample far away drives D to 1.
func TestQuickKSRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		d := KSStatistic(a, b)
		if d < 0 || d > 1 {
			return false
		}
		for i := range b {
			b[i] += 1e9
		}
		return KSStatistic(a, b) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the KSWIN threshold shrinks as alpha grows (easier to fire) and
// as r grows (more evidence).
func TestQuickThresholdMonotone(t *testing.T) {
	f := func(rawA, rawB uint8, rawR uint8) bool {
		a1 := 1e-6 + float64(rawA)/300.0
		a2 := a1 + 1e-6 + float64(rawB)/300.0
		r := 5 + int(rawR)%100
		if KSThreshold(a2, r) >= KSThreshold(a1, r) {
			return false
		}
		return KSThreshold(a1, r+10) < KSThreshold(a1, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// phaseStream builds a PC stream alternating between two phase-specific PC
// pools every phaseLen samples, with short impulse bursts from a third pool
// inside each phase (the false-positive trap of Fig. 5/9). Returns the
// stream and the ground-truth transition indices.
func phaseStream(phases, phaseLen, burstEvery, burstLen int, seed int64) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	poolA := []float64{0x400000, 0x400040, 0x400080, 0x4000c0}
	poolB := []float64{0x500000, 0x500040, 0x500080, 0x5000c0, 0x500100}
	poolBurst := []float64{0x600000, 0x600040}
	var xs []float64
	var truth []int
	for p := 0; p < phases; p++ {
		pool := poolA
		if p%2 == 1 {
			pool = poolB
		}
		if p > 0 {
			truth = append(truth, len(xs))
		}
		for i := 0; i < phaseLen; i++ {
			inBurst := burstEvery > 0 && i%burstEvery >= burstEvery-burstLen && i > burstEvery
			if inBurst {
				xs = append(xs, poolBurst[rng.Intn(len(poolBurst))])
			} else {
				xs = append(xs, pool[rng.Intn(len(pool))])
			}
		}
	}
	return xs, truth
}

func TestKSWINDetectsTransitions(t *testing.T) {
	xs, truth := phaseStream(4, 3000, 0, 0, 7)
	det := NewKSWIN(KSWINConfig{Seed: 1})
	detected := RunDetector(det, xs)
	s := EvaluateDetections(detected, truth, 0, 600)
	if s.Recall < 1 {
		t.Fatalf("KSWIN recall = %v on clean stream, want 1 (%v)", s.Recall, s)
	}
}

func TestSoftKSWINDetectsTransitions(t *testing.T) {
	xs, truth := phaseStream(4, 3000, 0, 0, 7)
	det := NewSoftKSWIN(KSWINConfig{Seed: 1})
	detected := RunDetector(det, xs)
	s := EvaluateDetections(detected, truth, 0, 600)
	if s.Recall < 1 {
		t.Fatalf("Soft-KSWIN recall = %v, want 1 (%v)", s.Recall, s)
	}
}

// The paper's headline claim for Table 4: on streams with impulse bursts,
// Soft-KSWIN keeps recall 1 while achieving strictly higher precision than
// KSWIN.
func TestSoftKSWINBeatsKSWINOnBursts(t *testing.T) {
	xs, truth := phaseStream(6, 4000, 900, 25, 11)
	hard := RunDetector(NewKSWIN(KSWINConfig{Seed: 3}), xs)
	soft := RunDetector(NewSoftKSWIN(KSWINConfig{Seed: 3}), xs)
	hs := EvaluateDetections(hard, truth, 0, 800)
	ss := EvaluateDetections(soft, truth, 0, 800)
	if ss.Recall < 1 {
		t.Fatalf("soft recall %v (%v)", ss.Recall, ss)
	}
	if ss.Precision <= hs.Precision {
		t.Fatalf("soft precision %.3f must beat hard %.3f (hard %v, soft %v)",
			ss.Precision, hs.Precision, hs, ss)
	}
}

func TestDetectorReset(t *testing.T) {
	xs, _ := phaseStream(2, 2000, 0, 0, 5)
	for _, d := range []Detector{NewKSWIN(KSWINConfig{Seed: 2}), NewSoftKSWIN(KSWINConfig{Seed: 2})} {
		first := RunDetector(d, xs)
		d.Reset()
		second := RunDetector(d, xs)
		if len(first) != len(second) {
			t.Fatalf("%s: %d vs %d detections after reset", d.Name(), len(first), len(second))
		}
	}
}

func TestDecisionTreeLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var X [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		cls := i % 2
		base := float64(cls) * 3
		X = append(X, []float64{base + rng.NormFloat64()*0.3, rng.NormFloat64()})
		y = append(y, cls)
	}
	tree := NewDecisionTree(6, 2)
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range X {
		if tree.Predict(X[i]) == y[i] {
			correct++
		}
	}
	if correct < 380 {
		t.Fatalf("tree accuracy %d/400", correct)
	}
	if tree.Depth() == 0 {
		t.Fatal("tree should have split")
	}
}

func TestDecisionTreeErrors(t *testing.T) {
	tree := NewDecisionTree(0, 0)
	if err := tree.Fit(nil, nil); err == nil {
		t.Fatal("empty fit must fail")
	}
	if err := tree.Fit([][]float64{{1, 2}, {1}}, []int{0, 1}); err == nil {
		t.Fatal("ragged rows must fail")
	}
	if tree.Predict([]float64{1}) != 0 {
		t.Fatal("untrained tree predicts class 0")
	}
}

func TestDecisionTreeDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []int
	for i := 0; i < 500; i++ {
		X = append(X, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y = append(y, rng.Intn(4))
	}
	tree := NewDecisionTree(3, 2)
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 3 {
		t.Fatalf("depth %d exceeds limit 3", tree.Depth())
	}
}

func TestPCFeaturizer(t *testing.T) {
	f := NewPCFeaturizer(4, 8)
	if f.Push(1) || f.Push(2) || f.Push(3) {
		t.Fatal("not warm yet")
	}
	if !f.Push(4) {
		t.Fatal("warm after window fills")
	}
	feats := f.Features()
	sum := 0.0
	for _, v := range feats {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("features must be a distribution, sum %g", sum)
	}
	f.Reset()
	if got := f.Features(); len(got) != 8 {
		t.Fatal("features after reset")
	}
	empty := NewPCFeaturizer(0, 0)
	if empty.Window != 64 || empty.Buckets != 16 {
		t.Fatal("defaults")
	}
}

// trainTreeOnStream labels each position with its phase and trains the tree
// on window features, mirroring the offline supervised workflow.
func trainTreeOnStream(xs []float64, truth []int, window, buckets int) *DecisionTree {
	labels := make([]int, len(xs))
	phase := 0
	next := 0
	for i := range xs {
		if next < len(truth) && i >= truth[next] {
			phase++
			next++
		}
		labels[i] = phase % 2
	}
	feat := NewPCFeaturizer(window, buckets)
	var X [][]float64
	var y []int
	for i, x := range xs {
		if feat.Push(x) && i%7 == 0 {
			X = append(X, feat.Features())
			y = append(y, labels[i])
		}
	}
	tree := NewDecisionTree(8, 4)
	if err := tree.Fit(X, y); err != nil {
		panic(err)
	}
	return tree
}

func TestDTDetectorsOnStream(t *testing.T) {
	trainXs, trainTruth := phaseStream(4, 3000, 900, 25, 21)
	tree := trainTreeOnStream(trainXs, trainTruth, 64, 16)

	testXs, testTruth := phaseStream(6, 3000, 900, 25, 22)
	hard := RunDetector(NewDTDetector(tree, 64, 16), testXs)
	soft := RunDetector(NewSoftDTDetector(tree, 64, 16, 40), testXs)
	hs := EvaluateDetections(hard, testTruth, 0, 600)
	ss := EvaluateDetections(soft, testTruth, 0, 600)
	if ss.Recall < 1 {
		t.Fatalf("soft-dt recall %v (%v)", ss.Recall, ss)
	}
	if hs.Recall < 1 {
		t.Fatalf("dt recall %v (%v)", hs.Recall, hs)
	}
	if ss.Precision < hs.Precision {
		t.Fatalf("soft-dt precision %.3f must be >= dt %.3f", ss.Precision, hs.Precision)
	}
	// Detector names are stable identifiers used in reports.
	if (&DTDetector{}).Name() != "dt" || (&SoftDTDetector{}).Name() != "soft-dt" {
		t.Fatal("names")
	}
}

func TestSoftDTReset(t *testing.T) {
	xs, truth := phaseStream(3, 2000, 0, 0, 30)
	tree := trainTreeOnStream(xs, truth, 64, 16)
	d := NewSoftDTDetector(tree, 64, 16, 40)
	first := RunDetector(d, xs)
	d.Reset()
	second := RunDetector(d, xs)
	if len(first) != len(second) {
		t.Fatal("reset must restore initial state")
	}
}

func TestEvaluateDetections(t *testing.T) {
	s := EvaluateDetections([]int{100, 105, 900}, []int{95, 500}, 0, 50)
	// 100 matches 95; 105 is a duplicate (FP); 900 matches nothing (FP);
	// 500 is missed.
	if s.TP != 1 || s.FP != 2 || s.Missed != 1 {
		t.Fatalf("got %+v", s)
	}
	if math.Abs(s.Precision-1.0/3) > 1e-12 || math.Abs(s.Recall-0.5) > 1e-12 {
		t.Fatalf("P/R wrong: %v", s)
	}
	if s.F1() <= 0 || s.String() == "" {
		t.Fatal("F1/String")
	}
	// Detections before the truth index do not match (detectors lag).
	s2 := EvaluateDetections([]int{90}, []int{95}, 0, 50)
	if s2.TP != 0 {
		t.Fatal("early detection must not match")
	}
	empty := EvaluateDetections(nil, nil, 0, 10)
	if empty.F1() != 0 {
		t.Fatal("empty F1")
	}
	perfect := EvaluateDetections([]int{10}, []int{10}, 0, 0)
	if perfect.Precision != 1 || perfect.Recall != 1 || perfect.F1() != 1 {
		t.Fatal("perfect score")
	}
}

// TestScoreAddPoolsCounts holds summed scores to the pooled formula: P =
// ΣTP/(ΣTP+ΣFP) and R = (Σ|truth| − ΣMissed)/Σ|truth|, bit for bit, on
// random detections against random truths.
func TestScoreAddPoolsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	random := func(n, span int) []int {
		out := make([]int, rng.Intn(n))
		for i := range out {
			out[i] = rng.Intn(span)
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		var sum Score
		tp, fp, missed, truths := 0, 0, 0, 0
		for k := rng.Intn(4); k >= 0; k-- {
			truth := random(8, 2000)
			s := EvaluateDetections(random(12, 2000), truth, rng.Intn(50), rng.Intn(200))
			if s.TP+s.Missed != len(truth) {
				t.Fatalf("TP %d + Missed %d != %d truths", s.TP, s.Missed, len(truth))
			}
			sum = sum.Add(s)
			tp, fp, missed, truths = tp+s.TP, fp+s.FP, missed+s.Missed, truths+len(truth)
		}
		p, r := 0.0, 0.0
		if tp+fp > 0 {
			p = float64(tp) / float64(tp+fp)
		}
		if truths > 0 {
			r = float64(truths-missed) / float64(truths)
		}
		if sum.Precision != p || sum.Recall != r || sum.TP != tp || sum.FP != fp || sum.Missed != missed {
			t.Fatalf("trial %d: sum %v, want P=%v R=%v tp=%d fp=%d miss=%d", trial, sum, p, r, tp, fp, missed)
		}
	}
}

func TestModeTieBreak(t *testing.T) {
	if mode([]int{1, 1, 2, 2}) != 1 {
		t.Fatal("mode must break ties toward the smaller class")
	}
	if mode([]int{3}) != 3 {
		t.Fatal("singleton mode")
	}
	d := &SoftDTDetector{labels: []int{1, 2, 3}}
	if d.mode([]int{2, 2, 0}) != 1 || d.mode([]int{0, 0, 1}) != 3 || d.mode([]int{0, 0, 0}) != 0 {
		t.Fatal("the counted mode must match mode: ties to the smaller class, 0 when empty")
	}
}

func TestEvaluateDetectionsLead(t *testing.T) {
	// A detection slightly before the truth matches when lead allows it.
	s := EvaluateDetections([]int{90}, []int{95}, 10, 50)
	if s.TP != 1 || s.FP != 0 {
		t.Fatalf("lead match failed: %+v", s)
	}
	s = EvaluateDetections([]int{80}, []int{95}, 10, 50)
	if s.TP != 0 {
		t.Fatal("detection beyond lead must not match")
	}
}
