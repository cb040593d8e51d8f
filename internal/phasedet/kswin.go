// Package phasedet implements the paper's phase-transition detectors:
// the unsupervised KSWIN baseline and its Soft-KSWIN variant (Algorithm 2)
// for the phase-label-inaccessible scenario, and a CART decision tree plus
// its Soft-DT variant for the label-accessible scenario, together with the
// precision/recall/F1 scoring of Table 4.
package phasedet

import (
	"math"
	"math/rand"
	"sort"
)

// Detector consumes a PC stream one observation at a time and reports phase
// transitions.
type Detector interface {
	// Name identifies the detector in reports.
	Name() string
	// Observe consumes the next program counter (as a real-valued sample)
	// and reports whether a phase transition is declared at this point.
	Observe(x float64) bool
	// Reset returns the detector to its initial state.
	Reset()
}

// KSStatistic computes the two-sample Kolmogorov-Smirnov statistic
// D = sup |F_a(x) - F_b(x)| between the empirical CDFs of a and b (Eq. 2).
func KSStatistic(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	i, j := 0, 0
	d := 0.0
	for i < len(as) && j < len(bs) {
		var x float64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		fa := float64(i) / float64(len(as))
		fb := float64(j) / float64(len(bs))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d
}

// KSThreshold is the rejection threshold of Eq. 5 for significance level
// alpha with equal-size windows of r samples.
func KSThreshold(alpha float64, r int) float64 {
	return math.Sqrt(-math.Log(alpha/2) / float64(r))
}

// KSWINConfig parameterises KSWIN and Soft-KSWIN.
type KSWINConfig struct {
	// Alpha is the K-S significance level (paper notes high sensitivity;
	// default 1e-4 per the KSWIN reference implementation).
	Alpha float64
	// WindowSize w is the sliding-window length (default 300).
	WindowSize int
	// RecentSize r is the recent-sample window length (default 30).
	RecentSize int
	// SoftThreshold th_r is Soft-KSWIN's required detection ratio
	// (default 0.5, Algorithm 2).
	SoftThreshold float64
	// Seed drives history-window sampling.
	Seed int64
}

func (c KSWINConfig) withDefaults() KSWINConfig {
	if c.Alpha == 0 {
		c.Alpha = 1e-4
	}
	if c.WindowSize == 0 {
		c.WindowSize = 300
	}
	if c.RecentSize == 0 {
		c.RecentSize = 30
	}
	if c.SoftThreshold == 0 {
		c.SoftThreshold = 0.5
	}
	return c
}

// ksWindow is the state KSWIN and Soft-KSWIN share: the last WindowSize
// observations in arrival order and, per distinct value among them, how often
// it occurs in the window, in its newest RecentSize observations, and in the
// history sample under test. The distinct values are kept ascending, so the
// counts hold the recent window sorted incrementally and counting-sort the
// history sample as it is drawn; the K-S statistic is then one sweep over the
// distinct values. Every buffer is sized at construction, so an observation
// allocates nothing. RecentSize must be smaller than WindowSize.
//
// The statistic is the one KSStatistic computes on the same two samples, to
// the bit: it depends on the samples only through their empirical CDFs, the
// sweep evaluates them as the merge does (frac), and the extra points it
// visits — values in neither sample, and values past the end of one — can
// only repeat or undercut a value the merge reaches. The history draws make
// the same rng.Intn calls in the same order as drawing the values
// themselves, so every detection is the one the shift-and-copy formulation
// makes.
type ksWindow struct {
	cfg       KSWINConfig
	threshold float64
	rng       *rand.Rand
	// frac[i] is float64(i)/float64(r), the empirical CDF of an r-sample
	// with i values at or below a point.
	frac []float64

	// vals[:distinct] are the distinct values in the window, ascending.
	// inWindow, inRecent and drawn count, per distinct value, its
	// occurrences in the window, in the recent window, and in the history
	// sample (zero outside a test).
	vals                      []float64
	distinct                  int
	inWindow, inRecent, drawn []int32

	// ids[lo:hi] is the window, oldest first, each observation as the index
	// of its value in vals. It slides right through ids, which holds two
	// windows, and is moved back to the front when it reaches the end.
	ids    []int32
	lo, hi int
	// spare holds the recent values while keepRecent rebuilds the window.
	spare []float64
}

func newKSWindow(cfg KSWINConfig) ksWindow {
	cfg = cfg.withDefaults()
	w, r := cfg.WindowSize, cfg.RecentSize
	k := ksWindow{
		cfg:       cfg,
		threshold: KSThreshold(cfg.Alpha, r),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		frac:      make([]float64, r+1),
		// A slide holds w+1 observations until it drops the oldest.
		vals:     make([]float64, w+1),
		inWindow: make([]int32, w+1),
		inRecent: make([]int32, w+1),
		drawn:    make([]int32, w+1),
		ids:      make([]int32, 2*(w+1)),
		spare:    make([]float64, r),
	}
	for i := range k.frac {
		k.frac[i] = float64(i) / float64(r)
	}
	return k
}

// reset empties the window and reseeds the generator in place.
func (k *ksWindow) reset() {
	k.clear()
	k.rng.Seed(k.cfg.Seed)
}

// clear empties the window. Counts of the distinct values it forgets are
// reset when a value takes their place.
func (k *ksWindow) clear() { k.lo, k.hi, k.distinct = 0, 0, 0 }

// slide appends x, dropping the oldest observation if the window was full,
// and reports whether it was: only an observation that slides a full window
// is tested.
//
//mpgraph:noalloc
func (k *ksWindow) slide(x float64) bool {
	full := k.hi-k.lo == k.cfg.WindowSize
	k.push(x)
	if full {
		v := k.ids[k.lo]
		k.lo++
		if k.inWindow[v]--; k.inWindow[v] == 0 {
			k.removeValue(v)
		}
	}
	return full
}

// push appends x to the window; the observation it pushes out of the recent
// window stays in the window.
//
//mpgraph:noalloc
func (k *ksWindow) push(x float64) {
	if r := k.cfg.RecentSize; k.hi-k.lo >= r {
		k.inRecent[k.ids[k.hi-r]]--
	}
	v := k.valueIndex(x)
	if k.hi == len(k.ids) {
		k.hi = copy(k.ids, k.ids[k.lo:k.hi])
		k.lo = 0
	}
	k.ids[k.hi] = v
	k.hi++
	k.inWindow[v]++
	k.inRecent[v]++
}

// valueIndex returns the index of x among the window's distinct values,
// inserting it if the window does not hold it yet.
//
//mpgraph:noalloc
func (k *ksWindow) valueIndex(x float64) int32 {
	n := k.distinct
	lo, hi := 0, n
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); k.vals[m] < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < n && k.vals[lo] == x {
		return int32(lo)
	}
	copy(k.vals[lo+1:n+1], k.vals[lo:n])
	copy(k.inWindow[lo+1:n+1], k.inWindow[lo:n])
	copy(k.inRecent[lo+1:n+1], k.inRecent[lo:n])
	k.vals[lo], k.inWindow[lo], k.inRecent[lo] = x, 0, 0
	k.distinct++
	// Renumber the window: indices at or above the new one move up. The
	// arithmetic form keeps a data-dependent branch out of the loop.
	p := int32(lo)
	win := k.ids[k.lo:k.hi]
	for i, v := range win {
		win[i] = v + int32(uint32(p-1-v)>>31)
	}
	return p
}

// removeValue forgets the distinct value at index p, which no observation in
// the window holds any more.
//
//mpgraph:noalloc
func (k *ksWindow) removeValue(p int32) {
	n := k.distinct
	copy(k.vals[p:n-1], k.vals[p+1:n])
	copy(k.inWindow[p:n-1], k.inWindow[p+1:n])
	copy(k.inRecent[p:n-1], k.inRecent[p+1:n])
	k.distinct--
	win := k.ids[k.lo:k.hi]
	for i, v := range win {
		win[i] = v - int32(uint32(p-v)>>31)
	}
}

// positive draws the r-sample history window uniformly (with replacement)
// from the oldest histEnd observations and reports whether its K-S distance
// to the recent window exceeds the threshold.
func (k *ksWindow) positive(histEnd int) bool {
	pool := k.ids[k.lo : k.lo+histEnd]
	for i := 0; i < k.cfg.RecentSize; i++ {
		k.drawn[pool[k.rng.Intn(histEnd)]]++
	}
	return k.statistic() > k.threshold
}

// statistic is D(H, R) between the drawn history sample and the recent
// window, swept over the distinct values in ascending order; it clears the
// drawn counts.
//
// The running maximum is taken over the differences' bits: with the sign
// bit cleared (math.Abs) a finite float orders as its bits do, so the
// integer max picks the float max, and it is one compare and move on the
// loop-carried chain where a float max is seven (a window of all-distinct
// values sweeps w+1 points per observation).
//
//mpgraph:noalloc
func (k *ksWindow) statistic() float64 {
	var d uint64
	h, c := 0, 0
	drawn, recent, frac := k.drawn[:k.distinct], k.inRecent[:k.distinct], k.frac
	for v := range drawn {
		h += int(drawn[v])
		c += int(recent[v])
		drawn[v] = 0
		d = max(d, math.Float64bits(frac[h]-frac[c])&^(1<<63))
	}
	return math.Float64frombits(d)
}

// keepRecent restarts the window from its recent part.
//
//mpgraph:noalloc
func (k *ksWindow) keepRecent() {
	r := k.cfg.RecentSize
	for i, v := range k.ids[k.hi-r : k.hi] {
		k.spare[i] = k.vals[v]
	}
	k.clear()
	for _, x := range k.spare {
		k.push(x)
	}
}

// KSWIN is the hard-threshold windowing K-S detector (Raab et al. 2020):
// it declares a transition the moment D(H,R) exceeds the threshold, which —
// as Fig. 5a/9 show — fires on impulse pattern shifts inside a phase.
type KSWIN struct{ ksWindow }

// NewKSWIN builds the hard detector.
func NewKSWIN(cfg KSWINConfig) *KSWIN { return &KSWIN{newKSWindow(cfg)} }

// Name implements Detector.
func (k *KSWIN) Name() string { return "kswin" }

// Reset implements Detector.
func (k *KSWIN) Reset() { k.reset() }

// Observe implements Detector.
func (k *KSWIN) Observe(x float64) bool {
	if !k.slide(x) {
		return false
	}
	if k.positive(k.cfg.WindowSize - k.cfg.RecentSize) {
		// Hard detection: fire immediately and restart from the recent
		// window (the reference KSWIN behaviour).
		k.keepRecent()
		return true
	}
	return false
}

// SoftKSWIN is Algorithm 2: after a first positive K-S detection it keeps
// sampling history only from points that predate the suspected shift, counts
// positive detections until a full recent window of fresh samples has
// arrived, and only declares a transition when the detection ratio exceeds
// SoftThreshold — suppressing the impulse-shift false positives of KSWIN at
// the cost of a ~r-sample lag.
type SoftKSWIN struct {
	ksWindow
	counter   int
	detection int
}

// NewSoftKSWIN builds the soft detector.
func NewSoftKSWIN(cfg KSWINConfig) *SoftKSWIN { return &SoftKSWIN{ksWindow: newKSWindow(cfg)} }

// Name implements Detector.
func (k *SoftKSWIN) Name() string { return "soft-kswin" }

// Reset implements Detector.
func (k *SoftKSWIN) Reset() {
	k.reset()
	k.counter, k.detection = 0, 0
}

// Observe implements Detector.
func (k *SoftKSWIN) Observe(x float64) bool {
	if !k.slide(x) {
		return false
	}
	w, r := k.cfg.WindowSize, k.cfg.RecentSize
	// Soft history window H' excludes the most recent counter samples,
	// which may already belong to the new pattern (Eq. 6).
	histEnd := w - r - k.counter
	if histEnd < r {
		histEnd = r // keep a minimal unpolluted pool
	}
	positive := k.positive(histEnd)

	if k.counter == 0 {
		if positive {
			k.counter, k.detection = 1, 1
		}
		return false
	}
	k.counter++
	if positive {
		k.detection++
	}
	if k.counter < 2*r {
		return false
	}
	// An entirely new recent window has been sampled since the first
	// positive: decide. A genuine transition keeps testing positive on the
	// now-fresh recent window; an impulse shift has reverted by now, so the
	// current test is negative and the pending detection is dismissed.
	ratio := float64(k.detection) / float64(k.counter)
	k.counter, k.detection = 0, 0
	if positive && ratio > k.cfg.SoftThreshold {
		// Transition confirmed: reset the model onto the new pattern.
		k.keepRecent()
		return true
	}
	return false
}
