//go:build invariants

package sim

// Tests that the engine's structural invariants fire under -tags
// invariants. Each test corrupts engine state the way a hypothetical bug
// would — these states are unreachable through the public API — and asserts
// the check catches it before the corruption turns into silently wrong
// simulated time.

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want invariant violation containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want message containing %q", r, substr)
		}
	}()
	f()
}

func TestWheelBitmapCorruptionPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleHandler(20, handlerFunc(func() {}))
	// Phantom occupancy: slot 5's bit claims an event the bucket doesn't
	// hold. Without the check, step would dereference a nil head.
	e.occ[0] |= 1 << 5
	mustPanic(t, "occupancy bit", func() { e.Step() })
}

func TestStepMonotonicityViolationPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleHandler(10, handlerFunc(func() {}))
	if !e.Step() {
		t.Fatal("first event did not execute")
	}
	e.ScheduleHandler(15, handlerFunc(func() {}))
	// Rewind the pending node behind the clock: per-Step monotonicity is
	// the property every model's latency arithmetic rests on.
	e.wheel[15&wheelMask].head.at = 5
	mustPanic(t, "precedes clock", func() { e.Step() })
}

// A reservation neither scheduled nor retired leaves Pending counting an
// event the wheel and the far heap do not hold.
func TestLeakedReservationPanics(t *testing.T) {
	e := NewEngine()
	e.Reserve(3)
	e.ScheduleHandler(5, handlerFunc(func() {}))
	if !e.Step() {
		t.Fatal("scheduled event did not execute")
	}
	mustPanic(t, "none scheduled", func() { e.Step() })
}

// A retirement that would move the clock past a scheduled event fires
// that event in the past.
func TestRetirePastAnEventPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleHandler(10, handlerFunc(func() {}))
	e.Reserve(20)
	mustPanic(t, "skips the event at 10", func() { e.Retire(20) })
}
