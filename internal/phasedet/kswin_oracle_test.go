package phasedet

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bruteKS is Eq. 2 read literally: the largest |F_a(x) - F_b(x)| over every
// sample point x, each CDF counted from scratch.
func bruteKS(a, b []float64) float64 {
	cdf := func(s []float64, x float64) float64 {
		n := 0
		for _, v := range s {
			if v <= x {
				n++
			}
		}
		return float64(n) / float64(len(s))
	}
	d := 0.0
	for _, x := range slices.Concat(a, b) {
		d = max(d, math.Abs(cdf(a, x)-cdf(b, x)))
	}
	return d
}

// TestKSStatisticMatchesBruteForce holds the merge over sorted samples to the
// brute-force supremum bit for bit, on sizes 1-64 drawn from pools small
// enough to tie heavily, with -0 and +0 in the pool.
func TestKSStatisticMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	negZero := math.Copysign(0, -1)
	pools := [][]float64{
		{negZero, 0},
		{negZero, 0, 1, -1},
		{0x400000, 0x400040, 0x400080},
		{-2.5, negZero, 0, 0.5, 3, 1e300},
	}
	draw := func(pool []float64) []float64 {
		s := make([]float64, 1+rng.Intn(64))
		for i := range s {
			s[i] = pool[rng.Intn(len(pool))]
		}
		return s
	}
	for trial := 0; trial < 2000; trial++ {
		var a, b []float64
		if trial%5 == 4 {
			// Continuous draws: no ties, every point distinct.
			a, b = make([]float64, 1+rng.Intn(64)), make([]float64, 1+rng.Intn(64))
			for i := range a {
				a[i] = rng.NormFloat64()
			}
			for i := range b {
				b[i] = rng.NormFloat64() + rng.Float64()
			}
		} else {
			pool := pools[trial%4]
			a, b = draw(pool), draw(pool)
		}
		want := bruteKS(a, b)
		if got := KSStatistic(a, b); got != want {
			t.Fatalf("trial %d: KSStatistic(%v, %v) = %v, brute force %v", trial, a, b, got, want)
		}
	}
}

// TestWindowStatisticMatchesKSStatistic holds the detectors' sweep over the
// window's distinct values to KSStatistic and to the brute force, bit for
// bit: windows of random size over tie-heavy pools (with -0 and +0) and over
// continuous values, a random history sample counted into the drawn counts,
// and the window's newest r observations as the recent window.
func TestWindowStatisticMatchesKSStatistic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	negZero := math.Copysign(0, -1)
	pools := [][]float64{{negZero, 0}, {negZero, 0, 1, -1}, {0x400000, 0x400040, 0x400080, 0x4000c0}, nil}
	for trial := 0; trial < 500; trial++ {
		w := 2 + rng.Intn(80)
		r := 1 + rng.Intn(w-1)
		k := newKSWindow(KSWINConfig{WindowSize: w, RecentSize: r})
		pool := pools[trial%len(pools)]
		var xs []float64
		for i, n := 0, w+rng.Intn(3*w); i < n; i++ {
			x := rng.NormFloat64()
			if pool != nil {
				x = pool[rng.Intn(len(pool))]
			}
			k.slide(x)
			xs = append(xs, x)
		}
		win := xs[len(xs)-w:]
		hist := make([]float64, r)
		for i := range hist {
			j := rng.Intn(w)
			hist[i] = win[j]
			k.drawn[k.ids[k.lo+j]]++
		}
		recent := win[w-r:]
		got, want := k.statistic(), KSStatistic(hist, recent)
		if got != want || want != bruteKS(hist, recent) {
			t.Fatalf("trial %d (w=%d, r=%d): sweep %v, KSStatistic %v, brute force %v", trial, w, r, got, want, bruteKS(hist, recent))
		}
		if slices.ContainsFunc(k.drawn, func(c int32) bool { return c != 0 }) {
			t.Fatalf("trial %d: the sweep left drawn counts behind", trial)
		}
	}
}

// oracleStream is one of three shapes a PC stream takes: plateaus of
// phase-specific PC pools, one pool broken by impulse bursts, and a ramp
// whose slope changes.
func oracleStream(kind string, n int, rng *rand.Rand) []float64 {
	xs := make([]float64, 0, n)
	switch kind {
	case "plateau":
		for len(xs) < n {
			base := float64(0x400000 + 0x10000*rng.Intn(4))
			width := 2 + rng.Intn(5)
			for i, l := 0, 200+rng.Intn(600); i < l && len(xs) < n; i++ {
				xs = append(xs, base+0x40*float64(rng.Intn(width)))
			}
		}
	case "impulse":
		next := 300 + rng.Intn(600)
		for len(xs) < n {
			if len(xs) == next {
				for i, l := 0, 5+rng.Intn(36); i < l && len(xs) < n; i++ {
					xs = append(xs, 0x600000+0x40*float64(rng.Intn(2)))
				}
				next = len(xs) + 300 + rng.Intn(600)
				continue
			}
			xs = append(xs, 0x400000+0x40*float64(rng.Intn(4)))
		}
	case "ramp":
		x, slope := 0.0, 1.0
		for len(xs) < n {
			if rng.Intn(500) == 0 {
				slope = float64(rng.Intn(8)) - 2
			}
			x += slope
			xs = append(xs, x+float64(rng.Intn(3)))
		}
	}
	return xs
}

// detectionsWithReset feeds xs through d, resetting it just before index
// resetAt (no reset when resetAt is out of range), and returns the firing
// indices.
func detectionsWithReset(d Detector, xs []float64, resetAt int) []int {
	var out []int
	for i, x := range xs {
		if i == resetAt {
			d.Reset()
		}
		if d.Observe(x) {
			out = append(out, i)
		}
	}
	return out
}

// TestKSWINMatchesReference holds both detectors to the shift-and-copy
// formulation they replaced (kept below as referenceKSWIN / referenceSoftKSWIN):
// equal firing indices on random plateau, impulse and ramp streams, over a
// grid of window sizes, significance levels, soft thresholds and seeds, with
// and without a Reset in mid-stream. The (60, 20) and (40, 30) windows reach
// Soft-KSWIN's histEnd = r clamp: once pending, the counter runs to 2r, past
// w - 2r.
func TestKSWINMatchesReference(t *testing.T) {
	windows := [][2]int{{40, 30}, {60, 20}, {100, 10}, {300, 30}}
	alphas := []float64{1e-4, 0.01, 0.2}
	thresholds := []float64{0.3, 0.5, 0.8}
	rng := rand.New(rand.NewSource(9))
	fired := map[string]int{}
	for c := 0; c < 48; c++ {
		wr := windows[c%len(windows)]
		cfg := KSWINConfig{
			WindowSize:    wr[0],
			RecentSize:    wr[1],
			Alpha:         alphas[rng.Intn(len(alphas))],
			SoftThreshold: thresholds[rng.Intn(len(thresholds))],
			Seed:          rng.Int63n(100),
		}
		for _, kind := range []string{"plateau", "impulse", "ramp"} {
			xs := oracleStream(kind, 2500, rng)
			resetAt := -1
			if c%2 == 1 {
				resetAt = 200 + rng.Intn(2000)
			}
			pairs := []struct {
				name      string
				got, want Detector
			}{
				{"kswin", NewKSWIN(cfg), newReferenceKSWIN(cfg)},
				{"soft-kswin", NewSoftKSWIN(cfg), newReferenceSoftKSWIN(cfg)},
			}
			for _, p := range pairs {
				got := detectionsWithReset(p.got, xs, resetAt)
				want := detectionsWithReset(p.want, xs, resetAt)
				if !slices.Equal(got, want) {
					t.Fatalf("%s %+v on %s (reset at %d): fired at %v, reference %v", p.name, cfg, kind, resetAt, got, want)
				}
				fired[p.name] += len(got)
				if p.name == "soft-kswin" && wr == [2]int{60, 20} {
					fired["soft-kswin clamped"] += len(got)
				}
			}
		}
	}
	t.Logf("firings over the grid: %v", fired)
	for _, name := range []string{"kswin", "soft-kswin", "soft-kswin clamped"} {
		if fired[name] < 10 {
			t.Fatalf("%s fired %d times over the grid: the comparison is nearly vacuous (%v)", name, fired[name], fired)
		}
	}
}

// TestKSWINObserveZeroAlloc: a full window tests every observation without
// allocating, and Reset allocates nothing either.
func TestKSWINObserveZeroAlloc(t *testing.T) {
	xs := oracleStream("plateau", 4000, rand.New(rand.NewSource(3)))
	for _, d := range []Detector{NewKSWIN(KSWINConfig{Seed: 1}), NewSoftKSWIN(KSWINConfig{Seed: 1})} {
		i := 0
		step := func() {
			d.Observe(xs[i%len(xs)])
			i++
		}
		for i < 400 {
			step()
		}
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Fatalf("%s: Observe allocates %.2f/op, want 0", d.Name(), allocs)
		}
		if allocs := testing.AllocsPerRun(10, d.Reset); allocs != 0 {
			t.Fatalf("%s: Reset allocates %.2f/op, want 0", d.Name(), allocs)
		}
	}
}

// The detectors as they were before the window became counts over its
// distinct values: kept verbatim (renamed) as the reference the oracle above
// compares against. KSStatistic is unchanged.

type referenceKSWIN struct {
	cfg       KSWINConfig
	threshold float64
	rng       *rand.Rand
	window    []float64
}

func newReferenceKSWIN(cfg KSWINConfig) *referenceKSWIN {
	cfg = cfg.withDefaults()
	return &referenceKSWIN{
		cfg:       cfg,
		threshold: KSThreshold(cfg.Alpha, cfg.RecentSize),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
}

func (k *referenceKSWIN) Name() string { return "kswin" }

func (k *referenceKSWIN) Reset() {
	k.window = k.window[:0]
	k.rng = rand.New(rand.NewSource(k.cfg.Seed))
}

func (k *referenceKSWIN) Observe(x float64) bool {
	w, r := k.cfg.WindowSize, k.cfg.RecentSize
	if len(k.window) < w {
		k.window = append(k.window, x)
		return false
	}
	copy(k.window, k.window[1:])
	k.window[w-1] = x
	recent := k.window[w-r:]
	hist := referenceSampleUniform(k.rng, k.window[:w-r], r)
	if KSStatistic(hist, recent) > k.threshold {
		// Hard detection: fire immediately and restart from the recent
		// window (the reference KSWIN behaviour).
		k.window = append(k.window[:0], recent...)
		return true
	}
	return false
}

type referenceSoftKSWIN struct {
	cfg       KSWINConfig
	threshold float64
	rng       *rand.Rand
	window    []float64
	counter   int
	detection int
}

func newReferenceSoftKSWIN(cfg KSWINConfig) *referenceSoftKSWIN {
	cfg = cfg.withDefaults()
	return &referenceSoftKSWIN{
		cfg:       cfg,
		threshold: KSThreshold(cfg.Alpha, cfg.RecentSize),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
	}
}

func (k *referenceSoftKSWIN) Name() string { return "soft-kswin" }

func (k *referenceSoftKSWIN) Reset() {
	k.window = k.window[:0]
	k.counter, k.detection = 0, 0
	k.rng = rand.New(rand.NewSource(k.cfg.Seed))
}

func (k *referenceSoftKSWIN) Observe(x float64) bool {
	w, r := k.cfg.WindowSize, k.cfg.RecentSize
	if len(k.window) < w {
		k.window = append(k.window, x)
		return false
	}
	copy(k.window, k.window[1:])
	k.window[w-1] = x
	recent := k.window[w-r:]
	// Soft history window H' excludes the most recent counter samples,
	// which may already belong to the new pattern (Eq. 6).
	histEnd := w - r - k.counter
	if histEnd < r {
		histEnd = r // keep a minimal unpolluted pool
	}
	hist := referenceSampleUniform(k.rng, k.window[:histEnd], r)
	positive := KSStatistic(hist, recent) > k.threshold

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
		k.window = append(k.window[:0], recent...)
		return true
	}
	return false
}

// referenceSampleUniform draws n samples uniformly (with replacement) from pool.
func referenceSampleUniform(rng *rand.Rand, pool []float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}
