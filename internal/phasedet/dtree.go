package phasedet

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// DecisionTree is a CART classifier (gini impurity, axis-aligned splits)
// used for supervised phase classification from PC-window features.
type DecisionTree struct {
	MaxDepth       int
	MinSamplesLeaf int
	root           *dtNode
	numFeatures    int
}

type dtNode struct {
	feature     int
	threshold   float64
	left, right *dtNode
	leafClass   int
	isLeaf      bool
}

// NewDecisionTree builds an untrained tree with the given limits.
func NewDecisionTree(maxDepth, minSamplesLeaf int) *DecisionTree {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	if minSamplesLeaf <= 0 {
		minSamplesLeaf = 4
	}
	return &DecisionTree{MaxDepth: maxDepth, MinSamplesLeaf: minSamplesLeaf}
}

// Fit trains on feature rows X with integer labels y.
func (t *DecisionTree) Fit(X [][]float64, y []int) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("phasedet: fit needs matching non-empty X,y (%d,%d)", len(X), len(y))
	}
	t.numFeatures = len(X[0])
	for i, row := range X {
		if len(row) != t.numFeatures {
			return fmt.Errorf("phasedet: row %d has %d features, want %d", i, len(row), t.numFeatures)
		}
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(X, y, idx, 0)
	return nil
}

func (t *DecisionTree) build(X [][]float64, y []int, idx []int, depth int) *dtNode {
	counts := map[int]int{}
	for _, i := range idx {
		counts[y[i]]++
	}
	majority, best := 0, -1
	for cls, n := range counts {
		if n > best || (n == best && cls < majority) {
			majority, best = cls, n
		}
	}
	if depth >= t.MaxDepth || len(counts) == 1 || len(idx) < 2*t.MinSamplesLeaf {
		return &dtNode{isLeaf: true, leafClass: majority}
	}
	feat, thr, gain := t.bestSplit(X, y, idx)
	if gain <= 0 {
		return &dtNode{isLeaf: true, leafClass: majority}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < t.MinSamplesLeaf || len(ri) < t.MinSamplesLeaf {
		return &dtNode{isLeaf: true, leafClass: majority}
	}
	return &dtNode{
		feature:   feat,
		threshold: thr,
		left:      t.build(X, y, li, depth+1),
		right:     t.build(X, y, ri, depth+1),
	}
}

func gini(counts map[int]int, total int) float64 {
	if total == 0 {
		return 0
	}
	// Accumulate in sorted class order: the impurity sum is float and
	// non-associative, and split selection tie-breaks on exact values.
	classes := make([]int, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	g := 1.0
	for _, c := range classes {
		p := float64(counts[c]) / float64(total)
		g -= p * p
	}
	return g
}

func (t *DecisionTree) bestSplit(X [][]float64, y []int, idx []int) (feat int, thr, gain float64) {
	parent := map[int]int{}
	for _, i := range idx {
		parent[y[i]]++
	}
	parentGini := gini(parent, len(idx))
	bestGain := 0.0
	bestFeat, bestThr := -1, 0.0
	vals := make([]float64, 0, len(idx))
	for f := 0; f < t.numFeatures; f++ {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		// Candidate thresholds: midpoints between consecutive *distinct*
		// values (features often take few values in long runs), subsampled
		// to bound cost.
		distinct := vals[:0]
		for k, v := range vals {
			if k == 0 || v != distinct[len(distinct)-1] {
				distinct = append(distinct, v)
			}
		}
		step := len(distinct)/32 + 1
		for k := step; k < len(distinct); k += step {
			cand := (distinct[k] + distinct[k-1]) / 2
			lc, rc := map[int]int{}, map[int]int{}
			ln := 0
			for _, i := range idx {
				if X[i][f] <= cand {
					lc[y[i]]++
					ln++
				} else {
					rc[y[i]]++
				}
			}
			rn := len(idx) - ln
			if ln == 0 || rn == 0 {
				continue
			}
			w := parentGini -
				(float64(ln)*gini(lc, ln)+float64(rn)*gini(rc, rn))/float64(len(idx))
			if w > bestGain {
				bestGain, bestFeat, bestThr = w, f, cand
			}
		}
	}
	return bestFeat, bestThr, bestGain
}

// Predict classifies one feature row.
func (t *DecisionTree) Predict(x []float64) int {
	n := t.root
	if n == nil {
		return 0
	}
	for !n.isLeaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.leafClass
}

// Depth reports the trained tree's depth (tests).
func (t *DecisionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *dtNode) int {
	if n == nil || n.isLeaf {
		return 0
	}
	return 1 + int(math.Max(float64(depthOf(n.left)), float64(depthOf(n.right))))
}

// --- PC-window featurisation shared by the DT detectors ---

// PCFeaturizer turns the most recent window of PCs into a bucket-histogram
// feature vector. PCs cluster by phase (Fig. 2b), so bucket frequencies are
// a near-perfect phase signature. The window is a ring beside its bucket
// counts, so a Push costs O(1) and a feature vector O(Buckets).
type PCFeaturizer struct {
	Window  int
	Buckets int
	recent  []float64 // ring of the last Window PCs, oldest at next once full
	next    int
	counts  []int     // counts[b] is how many PCs in recent fall in bucket b
	feats   []float64 // the buffer predict classifies, len Buckets
}

// NewPCFeaturizer builds a featurizer with the given window and bucket count.
func NewPCFeaturizer(window, buckets int) *PCFeaturizer {
	if window <= 0 {
		window = 64
	}
	if buckets <= 0 {
		buckets = 16
	}
	return &PCFeaturizer{Window: window, Buckets: buckets, counts: make([]int, buckets), feats: make([]float64, buckets)}
}

// Push adds a PC observation; it reports whether the window is warm.
func (f *PCFeaturizer) Push(x float64) bool {
	if len(f.recent) < f.Window {
		f.recent = append(f.recent, x)
	} else {
		f.counts[f.bucket(f.recent[f.next])]--
		f.recent[f.next] = x
		f.next = (f.next + 1) % f.Window
	}
	f.counts[f.bucket(x)]++
	return len(f.recent) == f.Window
}

// Features returns the normalised bucket histogram of the current window.
func (f *PCFeaturizer) Features() []float64 {
	return f.featuresInto(make([]float64, f.Buckets))
}

// featuresInto writes the normalised bucket histogram into out (len Buckets)
// and returns it.
func (f *PCFeaturizer) featuresInto(out []float64) []float64 {
	if len(f.recent) == 0 {
		clear(out)
		return out
	}
	for b, n := range f.counts {
		out[b] = float64(n) / float64(len(f.recent))
	}
	return out
}

func (f *PCFeaturizer) bucket(x float64) int {
	// PCs are code addresses with 0x40 spacing (low bits constant); a
	// multiplicative hash followed by folding the high bits down spreads
	// them across buckets.
	u := uint64(x)
	u ^= u >> 17
	u *= 0x9e3779b97f4a7c15
	u ^= u >> 33
	return int(u % uint64(f.Buckets))
}

// Reset clears the window.
func (f *PCFeaturizer) Reset() {
	f.recent, f.next = f.recent[:0], 0
	clear(f.counts)
}

// predict classifies the current window with tree, through the featurizer's
// own buffer.
func (f *PCFeaturizer) predict(tree *DecisionTree) int {
	return tree.Predict(f.featuresInto(f.feats))
}

// DTDetector predicts the current phase with a trained decision tree every
// observation and fires on any change between consecutive predictions —
// the hard supervised baseline of Section 4.2.2.
type DTDetector struct {
	Tree *DecisionTree
	Feat *PCFeaturizer
	last int
	warm bool
}

// NewDTDetector wraps a trained tree.
func NewDTDetector(tree *DecisionTree, window, buckets int) *DTDetector {
	return &DTDetector{Tree: tree, Feat: NewPCFeaturizer(window, buckets)}
}

// Name implements Detector.
func (d *DTDetector) Name() string { return "dt" }

// Reset implements Detector.
func (d *DTDetector) Reset() { d.Feat.Reset(); d.warm = false; d.last = 0 }

// Observe implements Detector.
func (d *DTDetector) Observe(x float64) bool {
	if !d.Feat.Push(x) {
		return false
	}
	pred := d.Feat.predict(d.Tree)
	if !d.warm {
		d.warm = true
		d.last = pred
		return false
	}
	if pred != d.last {
		d.last = pred
		return true
	}
	return false
}

// SoftDTDetector stores recent phase inferences in a queue and compares the
// modes of its head and tail halves, firing only when the two modes differ —
// Section 4.2.2's soft supervised detector. The queue is a ring, and each
// half keeps per-label counts as it slides, so an observation costs O(1) in
// the queue size.
type SoftDTDetector struct {
	Tree      *DecisionTree
	Feat      *PCFeaturizer
	QueueSize int
	queue     []int // ring of the last QueueSize inferences, oldest at start once full
	start     int
	inDiff    bool
	// labels lists the labels seen, ascending; head[i] and tail[i] count
	// labels[i] in the queue's head (oldest QueueSize/2) and tail halves.
	labels     []int
	head, tail []int
}

// NewSoftDTDetector wraps a trained tree with a soft result queue.
func NewSoftDTDetector(tree *DecisionTree, window, buckets, queueSize int) *SoftDTDetector {
	if queueSize <= 0 {
		queueSize = 40
	}
	return &SoftDTDetector{Tree: tree, Feat: NewPCFeaturizer(window, buckets), QueueSize: queueSize}
}

// Name implements Detector.
func (d *SoftDTDetector) Name() string { return "soft-dt" }

// Reset implements Detector.
func (d *SoftDTDetector) Reset() {
	d.Feat.Reset()
	d.queue, d.start = d.queue[:0], 0
	clear(d.head)
	clear(d.tail)
	d.inDiff = false
}

// Observe implements Detector.
func (d *SoftDTDetector) Observe(x float64) bool {
	if !d.Feat.Push(x) {
		return false
	}
	pred := d.Feat.predict(d.Tree)
	half := d.QueueSize / 2
	if len(d.queue) < d.QueueSize {
		if len(d.queue) < half {
			d.head[d.label(pred)]++
		} else {
			d.tail[d.label(pred)]++
		}
		d.queue = append(d.queue, pred)
		return false
	}
	// Slide: the oldest inference leaves the head, the tail's oldest moves
	// into the head, and pred joins the tail.
	if half > 0 {
		d.head[d.label(d.queue[d.start])]--
		mid := d.label(d.queue[(d.start+half)%d.QueueSize])
		d.tail[mid]--
		d.head[mid]++
	} else {
		d.tail[d.label(d.queue[d.start])]--
	}
	d.queue[d.start] = pred
	d.start = (d.start + 1) % d.QueueSize
	d.tail[d.label(pred)]++
	if d.mode(d.head) != d.mode(d.tail) {
		if !d.inDiff {
			d.inDiff = true
			return true
		}
		return false
	}
	d.inDiff = false
	return false
}

// label returns pred's index in d.labels, inserting it (with zero counts) in
// ascending order the first time it is seen.
func (d *SoftDTDetector) label(pred int) int {
	i, found := slices.BinarySearch(d.labels, pred)
	if !found {
		d.labels = slices.Insert(d.labels, i, pred)
		d.head = slices.Insert(d.head, i, 0)
		d.tail = slices.Insert(d.tail, i, 0)
	}
	return i
}

// mode is the label with the most counts, the lowest on ties, and 0 for an
// empty half.
func (d *SoftDTDetector) mode(counts []int) int {
	best, bestN := 0, 0
	for i, n := range counts {
		if n > bestN {
			best, bestN = d.labels[i], n
		}
	}
	return best
}
