package resilience

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mpgraph/internal/invariant"
)

// Point names a fault-injection site. The pipeline declares a small, fixed
// set of points; tests and the -inject CLI flag arm them.
type Point string

// The named injection points of the experiment pipeline and the serving
// daemon.
const (
	// PointArtifactBuild fires at the start of every workload artifact
	// build (trace generation + LLC capture).
	PointArtifactBuild Point = "artifact-build"
	// PointTrainEpoch fires at the start of every training epoch.
	PointTrainEpoch Point = "train-epoch"
	// PointSweepWorker fires at the start of every (workload, prefetcher)
	// sweep simulation task.
	PointSweepWorker Point = "sweep-worker"
	// PointCheckpointIO fires on every checkpoint save and load.
	PointCheckpointIO Point = "checkpoint-io"
	// PointServeAdmit fires on every serving-daemon admission decision
	// (session creation), before the session is built.
	PointServeAdmit Point = "serve-admit"
	// PointServeSession fires on every event a serving session's primary
	// prefetcher processes — inside the Guarded degradation boundary, so a
	// panic here benches one session, never the daemon.
	PointServeSession Point = "serve-session"
	// PointServeFlush fires on every prediction-stream flush boundary of a
	// serving session (once per streamed chunk).
	PointServeFlush Point = "serve-flush"
)

// Points lists the valid injection points.
func Points() []Point {
	return []Point{
		PointArtifactBuild, PointTrainEpoch, PointSweepWorker, PointCheckpointIO,
		PointServeAdmit, PointServeSession, PointServeFlush,
	}
}

// Kind selects how an armed point fails.
type Kind string

// The injected failure modes.
const (
	// KindErr makes the point return an *InjectedError.
	KindErr Kind = "err"
	// KindPanic makes the point panic with an *InjectedError — exercising
	// the recovery boundaries.
	KindPanic Kind = "panic"
	// KindCorrupt is interpreted by the checkpoint store: the save
	// succeeds, then a byte of the written file is flipped, so the fault
	// surfaces later as a checksum mismatch on load. Other points treat it
	// like KindErr.
	KindCorrupt Kind = "corrupt"
)

// InjectedError is the failure produced by an armed injection point.
type InjectedError struct {
	Point Point
	Kind  Kind
	// Hit is the 1-based occurrence count at which the point fired.
	Hit uint64
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("resilience: injected %s fault at %s (hit %d)", e.Kind, e.Point, e.Hit)
}

// arm is one armed injection point.
type arm struct {
	kind Kind
	// at fires the fault exactly once, on the at-th hit (1-based). 0 means
	// probabilistic mode.
	at uint64
	// prob fires the fault independently on every hit with this seeded
	// probability (only when at == 0).
	prob float64
}

// Injector is the deterministic fault-injection harness. A nil *Injector is
// valid and never fires — production call sites pay one nil check. All
// methods are safe for concurrent use; the hit counters make @N specs
// deterministic for any serial call sequence (the sweep's parallel workers
// observe an arbitrary but still exactly-one firing).
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	arms  map[Point]*arm
	hits  map[Point]uint64
	fired map[Point]uint64
}

// NewInjector returns an empty (disarmed) injector whose probabilistic arms
// draw from a rand stream seeded with seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		arms:  map[Point]*arm{},
		hits:  map[Point]uint64{},
		fired: map[Point]uint64{},
	}
}

// Arm arms point to fail with kind on the n-th hit (1-based, exactly once).
// Arming an unknown point or kind, or n = 0, is a programmer error and fails
// loudly through the designated invariant helper — a misspelled point would
// otherwise arm nothing, and a chaos drill against it would "pass" without
// ever injecting a fault. The CLI path (ParseInjector) reports the same
// defects as errors before this API is reached.
func (in *Injector) Arm(point Point, kind Kind, n uint64) *Injector {
	invariant.Checkf(validPoint(point), "resilience: arming unknown injection point %q (valid: %s)", point, pointNames())
	invariant.Checkf(validKind(kind), "resilience: arming unknown injection kind %q (valid: err, panic, corrupt)", kind)
	invariant.Checkf(n >= 1, "resilience: arming injection hit count 0 (1-based)")
	in.mu.Lock()
	defer in.mu.Unlock()
	in.arms[point] = &arm{kind: kind, at: n}
	return in
}

// ArmProb arms point to fail with kind on every hit independently with
// probability p, drawn from the injector's seeded stream. Unknown points
// and kinds, and a p outside [0, 1] (NaN included, which would never fire),
// fail loudly (see Arm).
func (in *Injector) ArmProb(point Point, kind Kind, p float64) *Injector {
	invariant.Checkf(validPoint(point), "resilience: arming unknown injection point %q (valid: %s)", point, pointNames())
	invariant.Checkf(validKind(kind), "resilience: arming unknown injection kind %q (valid: err, panic, corrupt)", kind)
	invariant.Checkf(validProb(p), "resilience: arming injection probability %v outside [0, 1]", p)
	in.mu.Lock()
	defer in.mu.Unlock()
	in.arms[point] = &arm{kind: kind, prob: p}
	return in
}

// ParseInjector parses a comma-separated spec of the form
//
//	point:kind@N  — fire once, on the N-th hit (1-based)
//	point:kind~P  — fire on each hit with seeded probability P
//
// e.g. "sweep-worker:panic@3,checkpoint-io:corrupt@1". An empty spec yields
// a nil (disarmed) injector.
func ParseInjector(spec string, seed int64) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	in := NewInjector(seed)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		point, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("resilience: bad injection spec %q (want point:kind@N or point:kind~P)", part)
		}
		p := Point(point)
		if !validPoint(p) {
			return nil, fmt.Errorf("resilience: unknown injection point %q (valid: %s)", point, pointNames())
		}
		var kindStr, argStr string
		var probabilistic bool
		if k, a, ok := strings.Cut(rest, "@"); ok {
			kindStr, argStr = k, a
		} else if k, a, ok := strings.Cut(rest, "~"); ok {
			kindStr, argStr, probabilistic = k, a, true
		} else {
			return nil, fmt.Errorf("resilience: bad injection spec %q: missing @N or ~P", part)
		}
		kind := Kind(kindStr)
		if !validKind(kind) {
			return nil, fmt.Errorf("resilience: unknown injection kind %q (valid: err, panic, corrupt)", kindStr)
		}
		if probabilistic {
			prob, err := strconv.ParseFloat(argStr, 64)
			if err != nil || !validProb(prob) {
				return nil, fmt.Errorf("resilience: bad injection probability %q in %q", argStr, part)
			}
			in.ArmProb(p, kind, prob)
		} else {
			n, err := strconv.ParseUint(argStr, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("resilience: bad injection hit count %q in %q (1-based)", argStr, part)
			}
			in.Arm(p, kind, n)
		}
	}
	return in, nil
}

func validKind(k Kind) bool {
	switch k {
	case KindErr, KindPanic, KindCorrupt:
		return true
	}
	return false
}

// validProb reports p ∈ [0, 1]. NaN fails both comparisons, so it is out.
func validProb(p float64) bool { return p >= 0 && p <= 1 }

func validPoint(p Point) bool {
	for _, q := range Points() {
		if p == q {
			return true
		}
	}
	return false
}

func pointNames() string {
	var names []string
	for _, p := range Points() {
		names = append(names, string(p))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Fire records a hit at point and returns the armed fault when it triggers:
// an *InjectedError for KindErr and KindCorrupt (callers that understand
// corruption, like the checkpoint store, inspect the Kind), or a panic
// carrying the *InjectedError for KindPanic — the caller is expected to sit
// behind a Guard boundary. A nil injector or unarmed point returns nil.
func (in *Injector) Fire(point Point) error {
	if in == nil {
		return nil
	}
	a, hit, trigger := in.evalHit(point)
	if !trigger {
		return nil
	}
	ie := &InjectedError{Point: point, Kind: a.kind, Hit: hit}
	if a.kind == KindPanic {
		panic(ie) //mpgraph:allow panicpolicy -- fault injection: the armed panic exists to exercise recovery boundaries
	}
	return ie
}

// evalHit records the hit under the lock and decides whether the armed
// fault triggers. The deferred unlock keeps the counters consistent even
// if the probability draw panics; the panic/return paths of Fire itself
// stay outside the critical section.
func (in *Injector) evalHit(point Point) (a *arm, hit uint64, trigger bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	a = in.arms[point]
	if a == nil {
		return nil, 0, false
	}
	in.hits[point]++
	hit = in.hits[point]
	if a.at > 0 {
		trigger = hit == a.at
	} else {
		trigger = in.rng.Float64() < a.prob
	}
	if trigger {
		in.fired[point]++
	}
	return a, hit, trigger
}

// Hits reports how many times point has been reached.
func (in *Injector) Hits(point Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[point]
}

// Fired reports how many times point has actually injected a fault.
func (in *Injector) Fired(point Point) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[point]
}
