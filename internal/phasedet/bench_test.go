package phasedet

import (
	"math/rand"
	"testing"
)

func benchStream(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		pool := 0x400000 + uint64(rng.Intn(5))*0x40
		if (i/5000)%2 == 1 {
			pool = 0x500000 + uint64(rng.Intn(5))*0x40
		}
		xs[i] = float64(pool)
	}
	return xs
}

// distinctStream is the window's worst case: every observation is a PC the
// window does not hold yet (random 64-byte blocks of a 2^38-byte span, so a
// repeat within 300 observations is all but impossible), and each one inserts
// a distinct value and, once the window is full, retires another.
func distinctStream(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(0x400000 + uint64(rng.Int63n(1<<32))*0x40)
	}
	return xs
}

// benchDetector runs 20,000 observations of xs through det per op, from a
// Reset: the first 300 fill the window, every later one slides and tests it.
func benchDetector(b *testing.B, det Detector, stream func(int) []float64) {
	xs := stream(20_000)
	b.SetBytes(int64(len(xs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Reset()
		for _, x := range xs {
			det.Observe(x)
		}
	}
}

func BenchmarkKSWIN(b *testing.B) { benchDetector(b, NewKSWIN(KSWINConfig{Seed: 1}), benchStream) }

func BenchmarkSoftKSWIN(b *testing.B) {
	benchDetector(b, NewSoftKSWIN(KSWINConfig{Seed: 1}), benchStream)
}

func BenchmarkKSWINDistinct(b *testing.B) {
	benchDetector(b, NewKSWIN(KSWINConfig{Seed: 1}), distinctStream)
}

func BenchmarkSoftKSWINDistinct(b *testing.B) {
	benchDetector(b, NewSoftKSWIN(KSWINConfig{Seed: 1}), distinctStream)
}

func BenchmarkKSStatistic(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 30)
	y := make([]float64, 30)
	for i := range x {
		x[i], y[i] = rng.Float64(), rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSStatistic(x, y)
	}
}

// benchTree is a tree trained on benchStream's two phases at Table 4's
// window and bucket count.
func benchTree(b *testing.B) *DecisionTree {
	feat := NewPCFeaturizer(96, 32)
	var X [][]float64
	var y []int
	for i, x := range benchStream(20_000) {
		if feat.Push(x) && i%5 == 0 {
			X = append(X, feat.Features())
			y = append(y, (i/5000)%2)
		}
	}
	tree := NewDecisionTree(8, 4)
	if err := tree.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	return tree
}

// benchWarmDetector is benchDetector after one untimed pass, which sizes the
// detector's queue and label counts: the rows then read the steady state,
// 0 allocs/op.
func benchWarmDetector(b *testing.B, det Detector) {
	for _, x := range benchStream(20_000) {
		det.Observe(x)
	}
	benchDetector(b, det, benchStream)
}

func BenchmarkDT(b *testing.B) { benchWarmDetector(b, NewDTDetector(benchTree(b), 96, 32)) }

// BenchmarkSoftDT runs Table 4's result queue of 800.
func BenchmarkSoftDT(b *testing.B) {
	benchWarmDetector(b, NewSoftDTDetector(benchTree(b), 96, 32, 800))
}
