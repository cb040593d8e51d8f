package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestGuardPassesThrough(t *testing.T) {
	if err := Guard("t", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := errors.New("boom")
	if err := Guard("t", func() error { return want }); err != want {
		t.Fatalf("err = %v, want pass-through", err)
	}
	v, err := GuardVal("t", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("GuardVal = %d, %v", v, err)
	}
}

func TestGuardRecoversPanic(t *testing.T) {
	err := Guard("boundary-name", func() error { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Boundary != "boundary-name" || pe.Value != "kaboom" {
		t.Fatalf("PanicError = %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !strings.Contains(pe.Error(), "boundary-name") || !strings.Contains(pe.Error(), "kaboom") {
		t.Fatalf("Error() = %q", pe.Error())
	}

	v, err := GuardVal("t", func() (int, error) { panic("v") })
	if v != 0 || !errors.As(err, &pe) {
		t.Fatalf("GuardVal after panic = %d, %v", v, err)
	}
}

func TestInjectorNilAndUnarmed(t *testing.T) {
	var nilInj *Injector
	if err := nilInj.Fire(PointSweepWorker); err != nil {
		t.Fatal(err)
	}
	if nilInj.Hits(PointSweepWorker) != 0 || nilInj.Fired(PointSweepWorker) != 0 {
		t.Fatal("nil injector must report zero counters")
	}
	in := NewInjector(1)
	if err := in.Fire(PointSweepWorker); err != nil {
		t.Fatal("unarmed point must not fire")
	}
	if in.Hits(PointSweepWorker) != 0 {
		t.Fatal("unarmed points are not counted")
	}
}

func TestInjectorFiresExactlyOnceAtN(t *testing.T) {
	in := NewInjector(1).Arm(PointTrainEpoch, KindErr, 3)
	var errs []error
	for i := 0; i < 6; i++ {
		errs = append(errs, in.Fire(PointTrainEpoch))
	}
	for i, err := range errs {
		if i == 2 {
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Point != PointTrainEpoch || ie.Kind != KindErr || ie.Hit != 3 {
				t.Fatalf("hit 3: err = %v", err)
			}
		} else if err != nil {
			t.Fatalf("hit %d: unexpected %v", i+1, err)
		}
	}
	if in.Hits(PointTrainEpoch) != 6 || in.Fired(PointTrainEpoch) != 1 {
		t.Fatalf("counters = %d hits / %d fired", in.Hits(PointTrainEpoch), in.Fired(PointTrainEpoch))
	}
}

func TestInjectorPanicKindPanics(t *testing.T) {
	in := NewInjector(1).Arm(PointSweepWorker, KindPanic, 1)
	err := Guard("test", func() error { return in.Fire(PointSweepWorker) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	ie, ok := pe.Value.(*InjectedError)
	if !ok || ie.Kind != KindPanic {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

func TestInjectorProbabilisticSeeded(t *testing.T) {
	run := func(seed int64) []bool {
		in := NewInjector(seed).ArmProb(PointSweepWorker, KindErr, 0.5)
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fire(PointSweepWorker) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same firing sequence")
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 over 64 hits fired %d times — not probabilistic", fired)
	}
}

func TestInjectorConcurrentFireExactlyOnce(t *testing.T) {
	in := NewInjector(1).Arm(PointSweepWorker, KindErr, 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				err := Guard("test", func() error { return in.Fire(PointSweepWorker) })
				_ = err // counting via Fired below; individual results are racy by design
			}
		}()
	}
	wg.Wait()
	if got := in.Fired(PointSweepWorker); got != 1 {
		t.Fatalf("fired %d times under concurrency, want exactly 1", got)
	}
	if got := in.Hits(PointSweepWorker); got != 200 {
		t.Fatalf("hits = %d, want 200", got)
	}
}

func TestParseInjector(t *testing.T) {
	in, err := ParseInjector("", 1)
	if err != nil || in != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", in, err)
	}
	in, err = ParseInjector("sweep-worker:panic@3, checkpoint-io:corrupt@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := in.Fire(PointSweepWorker); err != nil {
			t.Fatalf("hit %d: %v", i+1, err)
		}
	}
	err = Guard("test", func() error { return in.Fire(PointSweepWorker) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("third sweep-worker hit = %v, want panic", err)
	}
	err = in.Fire(PointCheckpointIO)
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Kind != KindCorrupt {
		t.Fatalf("checkpoint-io hit = %v, want corrupt", err)
	}

	in, err = ParseInjector("train-epoch:err~0.5", 7)
	if err != nil || in == nil {
		t.Fatalf("probabilistic spec: %v, %v", in, err)
	}

	for _, bad := range []string{
		"nope",                  // no colon
		"bogus-point:err@1",     // unknown point
		"train-epoch:explode@1", // unknown kind
		"train-epoch:err@0",     // 1-based hit count
		"train-epoch:err@x",     // non-numeric
		"train-epoch:err~1.5",   // probability out of range
		"train-epoch:err",       // missing @N / ~P
	} {
		if _, err := ParseInjector(bad, 1); err == nil {
			t.Fatalf("spec %q must fail to parse", bad)
		}
	}
}

func TestEventLog(t *testing.T) {
	var nilLog *Log
	if nilLog.Add("a", "b", "c") != 0 || nilLog.Len() != 0 || nilLog.Events() != nil {
		t.Fatal("nil log must drop events")
	}
	var buf bytes.Buffer
	if _, err := nilLog.WriteTo(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil log WriteTo must be empty")
	}

	l := &Log{}
	for i := 0; i < 3; i++ {
		l.Add("prefetch/mpgraph", "violation", fmt.Sprintf("v%d", i))
	}
	l.Add("prefetch/mpgraph", "quarantine", "3 violations")
	l.Add("checkpoint", "corrupt-checkpoint", "bad crc")
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	ev := l.Events()
	for i, e := range ev {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if l.Count("prefetch/mpgraph", "violation") != 3 {
		t.Fatal("Count(component, action)")
	}
	if l.Count("", "quarantine") != 1 || l.Count("checkpoint", "") != 1 {
		t.Fatal("Count with wildcard filters")
	}
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "quarantine") || !strings.Contains(buf.String(), "bad crc") {
		t.Fatalf("WriteTo output:\n%s", buf.String())
	}
}
