package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// handlerFunc adapts a closure to Handler, so a test can schedule work
// without declaring a receiver type for it.
type handlerFunc func()

func (f handlerFunc) Fire(Cycle) { f() }

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine Now = %d, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported work")
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.ScheduleHandler(30, handlerFunc(func() { got = append(got, 3) }))
	e.ScheduleHandler(10, handlerFunc(func() { got = append(got, 1) }))
	e.ScheduleHandler(20, handlerFunc(func() { got = append(got, 2) }))
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final Now = %d, want 30", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.ScheduleHandler(7, handlerFunc(func() { got = append(got, i) }))
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events out of FIFO order at %d: %v", i, got[:i+1])
		}
	}
}

// TestAfterRelative: an event scheduled a delay after Now() from inside
// another event fires that many cycles later.
func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var fired Cycle
	e.ScheduleHandler(100, handlerFunc(func() {
		e.ScheduleHandler(e.Now()+25, handlerFunc(func() { fired = e.Now() }))
	}))
	e.Run()
	if fired != 125 {
		t.Fatalf("Now()+25 from cycle 100 fired at %d, want 125", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleHandler(10, handlerFunc(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleHandler(5, handlerFunc(func() {}))
	}))
	e.ScheduleHandler(10, handlerFunc(func() {
		defer func() {
			if recover() == nil {
				t.Error("reserving in the past did not panic")
			}
		}()
		e.Reserve(5)
	}))
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for _, c := range []Cycle{5, 10, 15, 20} {
		e.ScheduleHandler(c, handlerFunc(func() { count++ }))
	}
	if e.RunUntil(12) {
		t.Fatal("RunUntil(12) claimed the queue drained")
	}
	if count != 2 {
		t.Fatalf("RunUntil(12) ran %d events, want 2", count)
	}
	if !e.RunUntil(100) {
		t.Fatal("RunUntil(100) did not drain")
	}
	if count != 4 {
		t.Fatalf("total events %d, want 4", count)
	}
}

func TestCascadedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		if depth < 1000 {
			depth++
			e.ScheduleHandler(e.Now()+1, handlerFunc(recurse))
		}
	}
	e.ScheduleHandler(0, handlerFunc(recurse))
	e.Run()
	if depth != 1000 {
		t.Fatalf("cascade depth %d, want 1000", depth)
	}
	if e.Now() != 1000 {
		t.Fatalf("Now = %d, want 1000", e.Now())
	}
	if e.Steps() != 1001 {
		t.Fatalf("Steps = %d, want 1001", e.Steps())
	}
}

// TestHeapPropertyRandom drains a large random schedule and verifies
// monotonically non-decreasing firing times.
func TestHeapPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	var times []Cycle
	const n = 5000
	want := make([]Cycle, 0, n)
	for i := 0; i < n; i++ {
		c := Cycle(rng.Intn(10000))
		want = append(want, c)
		e.ScheduleHandler(c, handlerFunc(func() { times = append(times, e.Now()) }))
	}
	e.Run()
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(times) != n {
		t.Fatalf("ran %d events, want %d", len(times), n)
	}
	for i := range times {
		if times[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d", i, times[i], want[i])
		}
	}
}

// Property: for any set of delays, events fire in non-decreasing time order
// and the engine ends at the max scheduled cycle.
func TestQuickOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Cycle
		var max Cycle
		for _, d := range delays {
			c := Cycle(d)
			if c > max {
				max = c
			}
			e.ScheduleHandler(c, handlerFunc(func() { fired = append(fired, e.Now()) }))
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWheelHeapBoundaryFIFO schedules events for the same far-future cycle
// from both sides of the wheel horizon: two while the cycle is beyond the
// horizon (far heap) and one after the clock advanced enough to place it in
// the wheel directly. Firing order must follow scheduling order.
func TestWheelHeapBoundaryFIFO(t *testing.T) {
	e := NewEngine()
	target := Cycle(WheelSpan + 100)
	var got []int
	e.ScheduleHandler(target, handlerFunc(func() { got = append(got, 0) })) // heap: 0+span <= target
	e.ScheduleHandler(200, handlerFunc(func() {
		// now = 200: target is inside [200, 200+span) → wheel.
		e.ScheduleHandler(target, handlerFunc(func() { got = append(got, 2) }))
	}))
	e.ScheduleHandler(target, handlerFunc(func() { got = append(got, 1) })) // heap again
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("boundary firing order %v, want %v", got, want)
		}
	}
}

// TestSameCycleFIFOAfterMigration checks FIFO order among many events at
// one cycle that entered the engine through the far heap.
func TestSameCycleFIFOAfterMigration(t *testing.T) {
	e := NewEngine()
	target := Cycle(3 * WheelSpan)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.ScheduleHandler(target, handlerFunc(func() { got = append(got, i) }))
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("migrated same-cycle events out of order at %d: %v", i, got[:i+1])
		}
	}
	if len(got) != 100 {
		t.Fatalf("ran %d events, want 100", len(got))
	}
}

// TestRunUntilExactLimit: events exactly at the limit execute; the next
// cycle does not, both within the wheel and beyond the horizon.
func TestRunUntilExactLimit(t *testing.T) {
	for _, limit := range []Cycle{10, WheelSpan + 10} {
		e := NewEngine()
		var atLimit, past bool
		e.ScheduleHandler(limit, handlerFunc(func() { atLimit = true }))
		e.ScheduleHandler(limit+1, handlerFunc(func() { past = true }))
		if e.RunUntil(limit) {
			t.Fatalf("limit %d: RunUntil claimed drain with an event pending", limit)
		}
		if !atLimit {
			t.Fatalf("limit %d: event exactly at the limit did not run", limit)
		}
		if past {
			t.Fatalf("limit %d: event past the limit ran", limit)
		}
		if e.Now() != limit {
			t.Fatalf("limit %d: Now = %d", limit, e.Now())
		}
		if !e.RunUntil(limit + 1) {
			t.Fatalf("limit %d: queue did not drain", limit)
		}
	}
}

// TestScheduleAtNowInsideEvent: an event scheduling at Now() runs later the
// same cycle, after already-queued same-cycle events.
func TestScheduleAtNowInsideEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.ScheduleHandler(10, handlerFunc(func() {
		got = append(got, "a")
		e.ScheduleHandler(e.Now(), handlerFunc(func() { got = append(got, "c") }))
	}))
	e.ScheduleHandler(10, handlerFunc(func() { got = append(got, "b") }))
	e.Run()
	if want := "abc"; len(got) != 3 || got[0]+got[1]+got[2] != want {
		t.Fatalf("same-cycle self-schedule order %v, want a b c", got)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

// TestDeterminismTwinEngines drives two engines with an identical
// self-expanding schedule and requires identical firing traces and Steps.
func TestDeterminismTwinEngines(t *testing.T) {
	trace := func() ([]Cycle, uint64) {
		e := NewEngine()
		var fired []Cycle
		state := uint64(0x2545F4914F6CDD1D)
		next := func() uint64 { // xorshift64: deterministic, no rand dep
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return state
		}
		var spawn func(depth int) func()
		spawn = func(depth int) func() {
			return func() {
				fired = append(fired, e.Now())
				if depth >= 6 {
					return
				}
				n := int(next() % 3)
				for i := 0; i < n; i++ {
					e.ScheduleHandler(e.Now()+Cycle(next()%(2*WheelSpan)), handlerFunc(spawn(depth+1)))
				}
			}
		}
		for i := 0; i < 50; i++ {
			e.ScheduleHandler(Cycle(next()%500), handlerFunc(spawn(0)))
		}
		e.Run()
		return fired, e.Steps()
	}
	f1, s1 := trace()
	f2, s2 := trace()
	if s1 != s2 {
		t.Fatalf("Steps diverged: %d vs %d", s1, s2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("firing counts diverged: %d vs %d", len(f1), len(f2))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("firing order diverged at event %d: %d vs %d", i, f1[i], f2[i])
		}
	}
}

type countHandler struct{ n int }

func (h *countHandler) Fire(now Cycle) { h.n++ }

// TestScheduleHandlerZeroAlloc proves the steady-state zero-allocation
// contract: once the node pool is primed, scheduling and firing pre-bound
// handlers allocates nothing, on both the wheel and the far-heap paths.
func TestScheduleHandlerZeroAlloc(t *testing.T) {
	e := NewEngine()
	h := &countHandler{}
	// Prime: init the wheel, grow the node pool and the far heap.
	for i := 0; i < 100; i++ {
		e.ScheduleHandler(e.Now()+1, h)
		e.ScheduleHandler(e.Now()+WheelSpan+50, h)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleHandler(e.Now()+3, h)
		e.ScheduleHandler(e.Now()+WheelSpan+50, h)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state handler scheduling allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestPendingCount(t *testing.T) {
	e := NewEngine()
	e.ScheduleHandler(1, handlerFunc(func() {}))
	e.ScheduleHandler(2, handlerFunc(func() {}))
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("Pending after one step = %d, want 1", e.Pending())
	}
}

// NoneDueNow sees the events pending at the current cycle, whether they
// were scheduled into the wheel or migrated from the far heap, and
// nothing later; StepInline counts as one step.
func TestNoneDueNow(t *testing.T) {
	var e Engine
	if !e.NoneDueNow() {
		t.Fatal("fresh engine reports an event due")
	}
	far := Cycle(3 * WheelSpan)
	var got []bool
	probe := func() { got = append(got, e.NoneDueNow()) }
	for _, at := range []Cycle{5, 5, 6, far, far, far + 1} {
		e.ScheduleHandler(at, handlerFunc(probe))
	}
	e.Run()
	want := []bool{false, true, true, false, true, true}
	if !slices.Equal(got, want) {
		t.Fatalf("NoneDueNow at each event = %v, want %v", got, want)
	}
	steps := e.Steps()
	e.StepInline()
	if e.Steps() != steps+1 {
		t.Fatalf("Steps after StepInline = %d, want %d", e.Steps(), steps+1)
	}
}

// recorder returns a handler factory whose handlers append their names to
// *got when they fire.
func recorder(got *[]string) func(string) Handler {
	return func(name string) Handler {
		return handlerFunc(func() { *got = append(*got, name) })
	}
}

// A reserved event scheduled later fires where it would have fired had it
// been scheduled when reserved: before the later-numbered events already
// in its bucket, after the earlier ones, and alone in an empty bucket.
func TestScheduleReservedInsertsBySequence(t *testing.T) {
	e := NewEngine()
	var got []string
	ev := recorder(&got)
	r1 := e.Reserve(10)
	e.ScheduleHandler(10, ev("a"))
	r2 := e.Reserve(10)
	e.ScheduleHandler(10, ev("b"))
	e.ScheduleHandler(10, ev("c"))
	r3 := e.Reserve(10)
	r4 := e.Reserve(11)
	e.ScheduleReserved(10, r2, ev("r2")) // between a and b
	e.ScheduleReserved(10, r1, ev("r1")) // ahead of the bucket's head
	e.ScheduleReserved(10, r3, ev("r3")) // at the tail
	e.ScheduleReserved(11, r4, ev("r4")) // into an empty bucket
	if e.Pending() != 7 || e.Steps() != 0 {
		t.Fatalf("Pending %d Steps %d, want 7 0", e.Pending(), e.Steps())
	}
	e.Run()
	if want := []string{"r1", "a", "r2", "b", "c", "r3", "r4"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// A reserved event beyond the horizon waits in the far heap in (cycle,
// sequence) order and migrates into the wheel ahead of the events
// scheduled at its cycle after the migration.
func TestScheduleReservedThroughFarHeap(t *testing.T) {
	e := NewEngine()
	var got []string
	ev := recorder(&got)
	far := Cycle(2 * WheelSpan)
	r := e.Reserve(far)
	e.ScheduleHandler(far, ev("a"))
	e.ScheduleReserved(far, r, ev("r"))
	if len(e.far) != 2 {
		t.Fatalf("far heap holds %d events, want 2", len(e.far))
	}
	// Once the clock brings far inside the horizon, both have migrated
	// and b goes straight into the wheel behind them.
	e.ScheduleHandler(far-WheelSpan+1, handlerFunc(func() {
		if len(e.far) != 0 {
			t.Errorf("far heap holds %d events after the horizon passed them", len(e.far))
		}
		e.ScheduleHandler(far, ev("b"))
	}))
	e.Run()
	if want := []string{"r", "a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// Retire counts a reserved event as one step and one fewer pending. Past
// the clock, as between RunUntil quanta, it moves the clock and migrates
// the far events the new horizon covers, so an event scheduled at their
// cycle afterwards still fires behind them; at or before the clock it
// leaves the clock alone.
func TestRetireCountsAndMovesTheClock(t *testing.T) {
	e := NewEngine()
	var got []string
	ev := recorder(&got)
	far := Cycle(WheelSpan + 100)
	e.Reserve(40)
	e.Reserve(200)
	e.Reserve(150)
	e.ScheduleHandler(far, ev("a"))
	if e.RunUntil(50) || e.Now() != 0 || e.Steps() != 0 || e.Pending() != 4 {
		t.Fatalf("after RunUntil(50): Now %d Steps %d Pending %d, want 0 0 4", e.Now(), e.Steps(), e.Pending())
	}
	e.Retire(40)
	if e.Now() != 40 || e.Steps() != 1 || e.Pending() != 3 || len(e.far) != 1 {
		t.Fatalf("after Retire(40): Now %d Steps %d Pending %d far %d, want 40 1 3 1", e.Now(), e.Steps(), e.Pending(), len(e.far))
	}
	e.Retire(200)
	if e.Now() != 200 || e.Steps() != 2 || e.Pending() != 2 || len(e.far) != 0 {
		t.Fatalf("after Retire(200): Now %d Steps %d Pending %d far %d, want 200 2 2 0", e.Now(), e.Steps(), e.Pending(), len(e.far))
	}
	e.ScheduleHandler(far, ev("b"))
	e.Retire(150) // due before the clock: counted, the clock stays
	if e.Now() != 200 || e.Steps() != 3 || e.Pending() != 2 {
		t.Fatalf("after Retire(150): Now %d Steps %d Pending %d, want 200 3 2", e.Now(), e.Steps(), e.Pending())
	}
	e.Run()
	if want := []string{"a", "b"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != far || e.Steps() != 5 || e.Pending() != 0 {
		t.Fatalf("drained: Now %d Steps %d Pending %d, want %d 5 0", e.Now(), e.Steps(), e.Pending(), far)
	}
}
