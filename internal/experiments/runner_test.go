package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alloysim/internal/core"
)

// microParams are even smaller than tinyParams: runner-behavior tests only
// care about control flow, not simulated fidelity.
func microParams() Params {
	p := QuickParams()
	p.InstructionsPerCore = 2_000
	p.WarmupRefs = 200
	p.Cores = 2
	p.Parallelism = 4
	return p
}

// TestPrefetchReportsEveryError mixes failing points among succeeding ones:
// every failure must surface (not just the first), and the succeeding points
// must still run to completion and populate the memo.
func TestPrefetchReportsEveryError(t *testing.T) {
	r := NewRunner(microParams())
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredDefault},
		{Workload: "mcf_r", Design: core.Design("bogus-design"), Predictor: core.PredDefault},
		{Workload: "mcf_r", Design: core.DesignNone, Predictor: core.PredDefault},
		{Workload: "mcf_r", Design: core.Design("other-bad"), Predictor: core.PredDefault},
	}
	err := r.Prefetch(context.Background(), pts)
	if err == nil {
		t.Fatal("Prefetch with failing points returned nil error")
	}
	msg := err.Error()
	for _, want := range []string{"bogus-design", "other-bad"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention failing point %q", msg, want)
		}
	}
	// Failure finds the first failed point of a list, under any spelling,
	// and none in a list of points that succeeded.
	if f, ok := r.Failure([]Point{pts[0], {Workload: "mcf_r", Design: "other-bad", CacheMB: 256}, pts[1]}); !ok || f.Point.Design != "other-bad" {
		t.Errorf("Failure = %+v, %v; want other-bad's record", f, ok)
	}
	if f, ok := r.Failure([]Point{pts[0], pts[2]}); ok {
		t.Errorf("Failure of succeeded points = %+v", f)
	}
	// Succeeding points drained despite the failures and are memoized:
	// a replayed Run must be a pure memo hit (identical result).
	a, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatalf("successful point not runnable after failed Prefetch: %v", err)
	}
	b, _ := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if a.ExecCycles != b.ExecCycles {
		t.Fatal("memo did not replay the prefetched result")
	}
}

// TestPrefetchAllSucceed is the happy path: no error, memo warm.
func TestPrefetchAllSucceed(t *testing.T) {
	r := NewRunner(microParams())
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignNone, Predictor: core.PredDefault},
		{Workload: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredDefault},
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatalf("Prefetch: %v", err)
	}
}

// TestPrefetchLaunchesEachPointOnce lists one point in three spellings
// and a second point after them, with two workers. The second point is on
// another warmup front, so nothing it could reuse is being made while the
// first runs. Each simulation returns only once two distinct points run
// at the same time, so a later spelling that took a worker to wait for
// the first would keep the second point from ever starting.
func TestPrefetchLaunchesEachPointOnce(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	var (
		mu      sync.Mutex
		counts  = make(map[Point]int)
		running int
		both    = make(chan struct{})
	)
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		mu.Lock()
		counts[pt]++
		if running++; running == 2 {
			close(both)
		}
		mu.Unlock()
		select {
		case <-both:
			return core.Result{ExecCycles: 1}, nil
		case <-time.After(5 * time.Second):
			return core.Result{}, errors.New("no second distinct point started within 5s")
		}
	}
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredMAPI},
		{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: p.CacheMB},
		{Workload: "lbm_r", Design: core.DesignNone},
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 {
		t.Fatalf("simulated %d distinct points, want 2: %v", len(counts), counts)
	}
	//alloyvet:allow(determinism) assertions are per-entry and order-independent
	for pt, n := range counts {
		if n != 1 {
			t.Errorf("point %s simulated %d times, want 1", pt, n)
		}
	}
	if m := r.Metrics(); m.PointsRun != 2 || m.MemoHits != 0 {
		t.Fatalf("metrics %+v, want 2 points run and no memo hit", m)
	}
}

// TestCancelledPointsAreNotFailures cancels a sweep while both of its
// workers simulate points of two warmup fronts: the points are
// cancelled, not failed, so the runner keeps no failure record and the
// summary lists none.
func TestCancelledPointsAreNotFailures(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		if started.Add(1) == 2 {
			cancel()
		}
		<-ctx.Done()
		return core.Result{}, ctx.Err()
	}
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "lbm_r", Design: core.DesignNone},
	}
	if err := r.Prefetch(ctx, pts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if recs := r.FailureRecords(); len(recs) != 0 {
		t.Fatalf("cancelled points left failure records: %+v", recs)
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	if !strings.Contains(buf.String(), " failures=0 ") || strings.Contains(buf.String(), "failed:") {
		t.Fatalf("summary reports cancelled points as failures:\n%s", buf.String())
	}
}

// TestConcurrentMemoReaders hammers a warm memo point from many goroutines;
// run under -race this verifies the memo hit path under the runner's mutex.
func TestConcurrentMemoReaders(t *testing.T) {
	r := NewRunner(microParams())
	if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProgressWritesSerialized drives Prefetch with a non-thread-safe
// Progress writer; under -race this fails unless the runner serializes
// the writes.
func TestProgressWritesSerialized(t *testing.T) {
	const points = 24
	var buf bytes.Buffer
	p := microParams()
	p.Parallelism = 8
	p.Progress = &buf
	r := NewRunner(p)
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		return core.Result{ExecCycles: 1}, nil
	}
	pts := make([]Point, points)
	for i := range pts {
		pts[i] = Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: uint64(i + 1)}
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "ran "); got != points {
		t.Fatalf("progress recorded %d completions, want %d:\n%s", got, points, buf.String())
	}
}

// TestRunRecordsConfigErrors: a configuration error fails its point, is
// counted once and leaves one failure record carrying the error.
func TestRunRecordsConfigErrors(t *testing.T) {
	r := NewRunner(microParams())
	_, err := r.Run(context.Background(), "mcf_r", core.Design("bogus-design"), core.PredDefault, 0)
	if err == nil {
		t.Fatal("bogus design accepted")
	}
	if m := r.Metrics(); m.Failures != 1 || m.PointsRun != 0 {
		t.Fatalf("metrics %+v, want 1 failure and no point run", m)
	}
	recs := r.FailureRecords()
	if len(recs) != 1 || recs[0].Err != err.Error() {
		t.Fatalf("failure records %+v, want one record with error %q", recs, err)
	}
}

// TestPrefetchHonorsCancellation: cancelling mid-sweep stops launching
// points and reports the cancellation.
func TestPrefetchHonorsCancellation(t *testing.T) {
	p := microParams()
	p.Parallelism = 1
	r := NewRunner(p)
	ctx, cancel := context.WithCancel(context.Background())
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		cancel() // first point pulls the plug on the rest
		return core.Result{}, ctx.Err()
	}
	pts := make([]Point, 8)
	for i := range pts {
		pts[i] = Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: uint64(i + 1)}
	}
	err := r.Prefetch(ctx, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if m := r.Metrics(); m.PointsRun != 0 {
		t.Fatalf("%d points completed after cancellation", m.PointsRun)
	}
}

// TestWriteSummaryShape pins the machine-readable first line the CI
// checkpoint smoke greps for.
func TestWriteSummaryShape(t *testing.T) {
	r := NewRunner(microParams())
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		return core.Result{ExecCycles: 1}, nil
	}
	if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	want := "sweep summary: simulations_run=1 memo_hits=1 checkpoint_hits=0 failures=0 sim_wall_s="
	if !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("summary = %q, want prefix %q", buf.String(), want)
	}
	if want := " warm_replays=0 warm_copies=0\n"; !strings.HasSuffix(buf.String(), want) {
		t.Fatalf("summary = %q, want suffix %q", buf.String(), want)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("summary spans %d lines, want exactly 1:\n%s", n, buf.String())
	}
}

// TestPrefetchAtQuickScale runs real simulations through Prefetch at
// QuickParams scale with a shared Progress writer; the dedicated CI -race
// step runs exactly this test to catch harness data races at a realistic
// concurrency level. Concurrent points share recorded warmup fronts, so
// every memoized result must also equal a directly warmed run. Skipped
// under -short.
func TestPrefetchAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("QuickParams-scale prefetch in -short mode")
	}
	var progress bytes.Buffer
	p := QuickParams()
	p.Parallelism = 4
	p.Progress = &progress
	r := NewRunner(p)
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignNone},
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "mcf_r", Design: core.DesignLH},
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.PointsRun != uint64(len(pts)) {
		t.Fatalf("ran %d points, want %d", m.PointsRun, len(pts))
	}
	if got := strings.Count(progress.String(), "ran "); got != len(pts) {
		t.Fatalf("progress recorded %d lines, want %d", got, len(pts))
	}
	checkMemoMatchesDirect(t, r, pts)
}

// TestPointString keeps the progress-output key format stable: zero
// knobs add nothing, and each set knob appends its JSON name and value.
func TestPointString(t *testing.T) {
	pt := Point{Workload: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredDefault, CacheMB: 256}
	if got, want := pt.String(), "mcf_r|alloy||256"; got != want {
		t.Fatalf("Point.String() = %q, want %q", got, want)
	}
	pt.Knobs = Knobs{MLP: 4, WriteBuffer: 8, StackedChannels: 2, L3Policy: "lru", DCPolicy: "ship", Seed: 3}
	want := "mcf_r|alloy||256|mlp=4|write_buffer=8|stacked_channels=2|l3_policy=lru|dc_policy=ship|seed=3"
	if got := pt.String(); got != want {
		t.Fatalf("Point.String() = %q, want %q", got, want)
	}
}

// TestPrefetchRecordsSkippedPoints: a cancellation must leave a wrapped
// per-point error for every point that was never launched, not silently
// drop them from the report.
func TestPrefetchRecordsSkippedPoints(t *testing.T) {
	p := microParams()
	p.Parallelism = 1
	r := NewRunner(p)
	var ran atomic.Int32
	r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
		ran.Add(1)
		return core.Result{}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: nothing may launch, everything must be reported
	pts := make([]Point, 5)
	for i := range pts {
		pts[i] = Point{Workload: "mcf_r", Design: core.DesignAlloy, CacheMB: uint64(i + 1)}
	}
	err := r.Prefetch(ctx, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d points simulated under a cancelled context", n)
	}
	for _, pt := range pts {
		if !strings.Contains(err.Error(), pt.String()) {
			t.Errorf("skipped point %s missing from the joined error", pt)
		}
	}
}
