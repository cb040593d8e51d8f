package phasedet

import (
	"math/rand"
	"slices"
	"testing"
)

// referenceFeaturizer is PCFeaturizer as it stood before its ring: the window
// shifts down one slot per Push, and Features recounts it into a new slice.
type referenceFeaturizer struct {
	*PCFeaturizer
	window []float64
}

func (f *referenceFeaturizer) Push(x float64) bool {
	if len(f.window) < f.Window {
		f.window = append(f.window, x)
	} else {
		copy(f.window, f.window[1:])
		f.window[f.Window-1] = x
	}
	return len(f.window) == f.Window
}

func (f *referenceFeaturizer) Features() []float64 {
	out := make([]float64, f.Buckets)
	if len(f.window) == 0 {
		return out
	}
	for _, x := range f.window {
		out[f.bucket(x)]++
	}
	for i := range out {
		out[i] /= float64(len(f.window))
	}
	return out
}

func (f *referenceFeaturizer) Reset() { f.window = f.window[:0] }

// referenceSoftDT is SoftDTDetector as it stood before its counts: the queue
// shifts down one slot per inference, and both halves' modes are recounted
// from scratch in a map.
type referenceSoftDT struct {
	Tree      *DecisionTree
	Feat      *referenceFeaturizer
	QueueSize int
	queue     []int
	inDiff    bool
}

func (d *referenceSoftDT) Reset() {
	d.Feat.Reset()
	d.queue = d.queue[:0]
	d.inDiff = false
}

func (d *referenceSoftDT) Observe(x float64) bool {
	if !d.Feat.Push(x) {
		return false
	}
	pred := d.Tree.Predict(d.Feat.Features())
	if len(d.queue) < d.QueueSize {
		d.queue = append(d.queue, pred)
		return false
	}
	copy(d.queue, d.queue[1:])
	d.queue[d.QueueSize-1] = pred
	half := d.QueueSize / 2
	headMode := mode(d.queue[:half])
	tailMode := mode(d.queue[half:])
	if headMode != tailMode {
		if !d.inDiff {
			d.inDiff = true
			return true
		}
		return false
	}
	d.inDiff = false
	return false
}

func mode(xs []int) int {
	counts := map[int]int{}
	best, bestN := 0, -1
	for _, x := range xs {
		counts[x]++
		if counts[x] > bestN || (counts[x] == bestN && x < best) {
			best, bestN = x, counts[x]
		}
	}
	return best
}

// labelTree is a hand-built tree over a one-PC window's one-hot histogram:
// bucket i predicts labels[i]. pcs[i] is a PC that falls in bucket i, so a
// label stream becomes a PC stream.
func labelTree(f *PCFeaturizer, labels []int) (tree *DecisionTree, pcs []float64) {
	next := &dtNode{isLeaf: true, leafClass: labels[len(labels)-1]}
	for i := len(labels) - 2; i >= 0; i-- {
		next = &dtNode{feature: i, threshold: 0.5, left: next, right: &dtNode{isLeaf: true, leafClass: labels[i]}}
	}
	pcs = make([]float64, len(labels))
	found := 0
	for k := uint64(1); found < len(labels); k++ {
		x := float64(0x400000 + 0x40*k)
		if b := f.bucket(x); pcs[b] == 0 {
			pcs[b] = x
			found++
		}
	}
	return &DecisionTree{root: next, numFeatures: len(labels)}, pcs
}

// labelStream is a random stream of label indices below n: runs of one label
// (some many queues long) between stretches of noise.
func labelStream(rng *rand.Rand, n, queue, length int) []int {
	var out []int
	for len(out) < length {
		run := 1 + rng.Intn(3*queue)
		switch rng.Intn(4) {
		case 0:
			run = 5*queue + rng.Intn(5*queue)
			fallthrough
		case 1, 2:
			l := rng.Intn(n)
			for range run {
				out = append(out, l)
			}
		default:
			for range run {
				out = append(out, rng.Intn(n))
			}
		}
	}
	return out[:length]
}

// TestSoftDTMatchesReference holds SoftDTDetector to the detector it replaced
// detection by detection, on random streams of 1-8 labels (negative ones and
// gaps included, so insertion order and tie breaks both matter), at queue
// sizes 1, 2, odd and 800, with a Reset mid-stream.
func TestSoftDTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, queue := range []int{1, 2, 3, 7, 40, 800} {
		for n := 1; n <= 8; n++ {
			labels := rng.Perm(20)[:n]
			for i := range labels {
				labels[i] -= 5
			}
			soft := NewSoftDTDetector(nil, 1, n, queue)
			tree, pcs := labelTree(soft.Feat, labels)
			soft.Tree = tree
			for i, x := range pcs {
				oneHot := make([]float64, n)
				oneHot[soft.Feat.bucket(x)] = 1
				if got := tree.Predict(oneHot); got != labels[i] {
					t.Fatalf("label tree maps PC %#x to %d, want %d", uint64(x), got, labels[i])
				}
			}
			ref := &referenceSoftDT{Tree: tree, Feat: &referenceFeaturizer{PCFeaturizer: NewPCFeaturizer(1, n)}, QueueSize: queue}
			stream := labelStream(rng, n, queue, 12*queue+200)
			cut := rng.Intn(len(stream))
			fired := 0
			for i, l := range stream {
				if i == cut {
					soft.Reset()
					ref.Reset()
				}
				x := pcs[l]
				got, want := soft.Observe(x), ref.Observe(x)
				if got != want {
					t.Fatalf("queue %d, %d labels %v: observation %d (label %d) fired %v, reference %v",
						queue, n, labels, i, labels[l], got, want)
				}
				if want {
					fired++
				}
			}
			if n > 1 && queue > 1 && fired == 0 {
				t.Fatalf("queue %d, %d labels: the reference never fired; the stream exercises nothing", queue, n)
			}
		}
	}
}

// TestPCFeaturizerMatchesReference holds the ring's feature vectors to the
// shifting window's bit for bit after every Push, across windows and bucket
// counts, with a Reset mid-stream; the buffer predict reuses included.
func TestPCFeaturizerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, window := range []int{1, 2, 5, 96} {
		for _, buckets := range []int{1, 3, 16, 32} {
			f := NewPCFeaturizer(window, buckets)
			ref := &referenceFeaturizer{PCFeaturizer: NewPCFeaturizer(window, buckets)}
			pool := 1 + rng.Intn(40)
			cut := rng.Intn(1000)
			for i := 0; i < 1000; i++ {
				if i == cut {
					f.Reset()
					ref.Reset()
				}
				x := float64(0x400000 + 0x40*uint64(rng.Intn(pool)))
				if got, want := f.Push(x), ref.Push(x); got != want {
					t.Fatalf("window %d: push %d warm %v, reference %v", window, i, got, want)
				}
				want := ref.Features()
				if got := f.Features(); !slices.Equal(got, want) {
					t.Fatalf("window %d buckets %d push %d: %v, reference %v", window, buckets, i, got, want)
				}
				if got := f.featuresInto(f.feats); !slices.Equal(got, want) {
					t.Fatalf("window %d buckets %d push %d: buffer %v, reference %v", window, buckets, i, got, want)
				}
			}
		}
	}
}
