package resilience

import (
	"errors"
	"strings"
	"testing"
)

// TestParseInjectorServePoints pins the three serving-daemon injection
// points into the CLI grammar: each parses in both @N and ~P form and fires
// with the armed kind.
func TestParseInjectorServePoints(t *testing.T) {
	in, err := ParseInjector("serve-admit:err@1, serve-session:panic@2, serve-flush:corrupt@1", 1)
	if err != nil {
		t.Fatal(err)
	}
	var ie *InjectedError
	if err := in.Fire(PointServeAdmit); !errors.As(err, &ie) || ie.Kind != KindErr {
		t.Fatalf("serve-admit hit = %v, want injected err", err)
	}
	if err := in.Fire(PointServeSession); err != nil {
		t.Fatalf("serve-session hit 1 = %v, want clean (armed @2)", err)
	}
	err = Guard("test", func() error { return in.Fire(PointServeSession) })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("serve-session hit 2 = %v, want recovered panic", err)
	}
	if err := in.Fire(PointServeFlush); !errors.As(err, &ie) || ie.Kind != KindCorrupt {
		t.Fatalf("serve-flush hit = %v, want injected corrupt", err)
	}

	// The chaos drill's probabilistic form parses for every serve point and
	// reproduces its firing sequence per seed.
	for _, spec := range []string{"serve-admit:err~0.3", "serve-session:panic~0.05", "serve-flush:err~0.1"} {
		a, err := ParseInjector(spec, 99)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		b, err := ParseInjector(spec, 99)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		point := Point(strings.SplitN(spec, ":", 2)[0])
		for i := 0; i < 64; i++ {
			ae := Guard("test", func() error { return a.Fire(point) })
			be := Guard("test", func() error { return b.Fire(point) })
			if (ae != nil) != (be != nil) {
				t.Fatalf("%q: firing sequences diverge at hit %d for the same seed", spec, i+1)
			}
		}
	}

	// Points() is what both the parser and the arming invariants validate
	// against; the serve points must be enumerated there.
	want := map[Point]bool{PointServeAdmit: true, PointServeSession: true, PointServeFlush: true}
	for _, p := range Points() {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("Points() is missing %v", want)
	}
}

// TestParseInjectorRejectsUnknownServeLikePoints: a misspelled serve point
// must be a parse error — a chaos drill that silently arms nothing would
// "pass" without injecting a single fault.
func TestParseInjectorRejectsUnknownServeLikePoints(t *testing.T) {
	for _, bad := range []string{
		"serve-admission:err@1",   // misspelled point
		"serve-session:prob=0.05", // wrong grammar for the probabilistic form
		"serve-flush:drop@1",      // unknown kind
	} {
		if _, err := ParseInjector(bad, 1); err == nil {
			t.Fatalf("spec %q must fail to parse", bad)
		}
	}
}

// TestArmRejectsUnknownPointOrKind: the programmatic arming API fails
// loudly (invariant panic) on unknown names instead of arming a no-op.
func TestArmRejectsUnknownPointOrKind(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s must panic", name)
			}
		}()
		fn()
	}
	mustPanic("Arm(unknown point)", func() {
		NewInjector(1).Arm(Point("serve-admission"), KindErr, 1)
	})
	mustPanic("Arm(unknown kind)", func() {
		NewInjector(1).Arm(PointServeAdmit, Kind("explode"), 1)
	})
	mustPanic("ArmProb(unknown point)", func() {
		NewInjector(1).ArmProb(Point("sesion"), KindPanic, 0.5)
	})
	mustPanic("ArmProb(unknown kind)", func() {
		NewInjector(1).ArmProb(PointServeFlush, Kind(""), 0.5)
	})

	// Valid arms still chain.
	in := NewInjector(1).Arm(PointServeAdmit, KindErr, 1).ArmProb(PointServeFlush, KindErr, 1)
	if err := in.Fire(PointServeAdmit); err == nil {
		t.Fatal("valid Arm must still fire")
	}
	if err := in.Fire(PointServeFlush); err == nil {
		t.Fatal("valid ArmProb must still fire")
	}
}
