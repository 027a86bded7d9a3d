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

// TestConcurrentMemoReaders hammers a warm memo point from many goroutines;
// run under -race this verifies the RWMutex read path.
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

// TestRunSingleflightCollapsesDuplicates is the regression test for the
// check-then-act race: many goroutines hammering one Point must execute
// exactly one simulation, with everyone sharing its result. The fake
// simulate blocks until every worker has entered Run, so the old racy
// window (memo still empty, run already started) stays wide open.
func TestRunSingleflightCollapsesDuplicates(t *testing.T) {
	const workers = 32
	r := NewRunner(microParams())
	var sims atomic.Int32
	release := make(chan struct{})
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		sims.Add(1)
		<-release
		return core.Result{ExecCycles: 42}, nil
	}

	results := make([]core.Result, workers)
	errs := make([]error, workers)
	var entered, wg sync.WaitGroup
	entered.Add(workers)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		i := i
		go func() {
			defer wg.Done()
			entered.Done()
			results[i], errs[i] = r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
		}()
	}
	entered.Wait()
	close(release)
	wg.Wait()

	if n := sims.Load(); n != 1 {
		t.Fatalf("%d simulations executed for one point, want exactly 1", n)
	}
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if results[i].ExecCycles != 42 {
			t.Fatalf("worker %d got %v, want the shared result", i, results[i].ExecCycles)
		}
	}
	m := r.Metrics()
	if m.PointsRun != 1 {
		t.Fatalf("metrics count %d points run, want 1", m.PointsRun)
	}
	if m.FlightJoins+m.MemoHits != workers-1 {
		t.Fatalf("joins %d + memo hits %d != %d non-leader workers", m.FlightJoins, m.MemoHits, workers-1)
	}
}

// TestSpeedupSharesBaselineUnderRace covers the original bug's second
// face: concurrent Speedup calls for different designs share one
// DesignNone baseline simulation.
func TestSpeedupSharesBaselineUnderRace(t *testing.T) {
	r := NewRunner(microParams())
	var mu sync.Mutex
	counts := make(map[Point]int)
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		mu.Lock()
		counts[pt]++
		mu.Unlock()
		time.Sleep(5 * time.Millisecond) // hold the point in flight
		return core.Result{ExecCycles: float64(10 + len(pt.Design))}, nil
	}
	designs := []core.Design{core.DesignAlloy, core.DesignLH, core.DesignSRAMTag32, core.DesignIdealLO}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // 4 racing rounds over every design
		for _, d := range designs {
			d := d
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := r.Speedup(context.Background(), "mcf_r", d, core.PredDefault, 0); err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	//alloyvet:allow(determinism) assertions are per-entry and order-independent
	for pt, n := range counts {
		if n != 1 {
			t.Errorf("point %s simulated %d times, want 1", pt, n)
		}
	}
	if len(counts) != len(designs)+1 { // designs + shared baseline
		t.Fatalf("%d distinct points simulated, want %d", len(counts), len(designs)+1)
	}
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
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
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

// TestRunRetriesTransientFailures: a point that fails twice then succeeds
// must succeed overall within the retry budget.
func TestRunRetriesTransientFailures(t *testing.T) {
	p := microParams()
	p.Retries = 2
	r := NewRunner(p)
	var attempts atomic.Int32
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		if attempts.Add(1) <= 2 {
			return core.Result{}, errors.New("transient wobble")
		}
		return core.Result{ExecCycles: 7}, nil
	}
	res, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecCycles != 7 || attempts.Load() != 3 {
		t.Fatalf("res=%v attempts=%d, want success on attempt 3", res.ExecCycles, attempts.Load())
	}
	m := r.Metrics()
	if m.Retries != 2 || m.Failures != 0 || m.PointsRun != 1 {
		t.Fatalf("metrics %+v, want 2 retries, 0 failures, 1 point run", m)
	}
	if len(r.FailureRecords()) != 0 {
		t.Fatalf("success left failure records: %v", r.FailureRecords())
	}
}

// TestRunDoesNotRetryConfigErrors: configuration errors are permanent and
// must consume exactly one attempt regardless of the retry budget.
func TestRunDoesNotRetryConfigErrors(t *testing.T) {
	p := microParams()
	p.Retries = 3
	r := NewRunner(p)
	_, err := r.Run(context.Background(), "mcf_r", core.Design("bogus-design"), core.PredDefault, 0)
	if err == nil {
		t.Fatal("bogus design accepted")
	}
	m := r.Metrics()
	if m.Retries != 0 {
		t.Fatalf("config error was retried %d times", m.Retries)
	}
	recs := r.FailureRecords()
	if len(recs) != 1 || recs[0].Attempts != 1 {
		t.Fatalf("failure records %v, want one record with 1 attempt", recs)
	}
}

// TestRunExhaustedRetries: a persistently failing point surfaces its last
// error and a failure record with the full attempt count.
func TestRunExhaustedRetries(t *testing.T) {
	p := microParams()
	p.Retries = 1
	r := NewRunner(p)
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		return core.Result{}, errors.New("still broken")
	}
	_, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err == nil || !strings.Contains(err.Error(), "still broken") {
		t.Fatalf("err = %v, want the last attempt's error", err)
	}
	m := r.Metrics()
	if m.Retries != 1 || m.Failures != 1 {
		t.Fatalf("metrics %+v, want 1 retry and 1 failure", m)
	}
	recs := r.FailureRecords()
	if len(recs) != 1 || recs[0].Attempts != 2 {
		t.Fatalf("failure records %v, want one record with 2 attempts", recs)
	}
}

// TestPrefetchHonorsCancellation: cancelling mid-sweep stops launching
// points and reports the cancellation.
func TestPrefetchHonorsCancellation(t *testing.T) {
	p := microParams()
	p.Parallelism = 1
	r := NewRunner(p)
	ctx, cancel := context.WithCancel(context.Background())
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
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

// TestRunPointTimeout: a per-point deadline cancels the simulation and is
// retried up to the budget (timeouts are transient by policy).
func TestRunPointTimeout(t *testing.T) {
	p := microParams()
	p.PointTimeout = time.Millisecond
	p.Retries = 1
	r := NewRunner(p)
	var attempts atomic.Int32
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		attempts.Add(1)
		<-ctx.Done() // simulate a run that outlives its deadline
		return core.Result{}, ctx.Err()
	}
	_, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if attempts.Load() != 2 {
		t.Fatalf("timed-out point attempted %d times, want 2 (1 + 1 retry)", attempts.Load())
	}
}

// TestWriteSummaryShape pins the machine-readable first line the CI
// checkpoint smoke greps for.
func TestWriteSummaryShape(t *testing.T) {
	r := NewRunner(microParams())
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
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
	want := "sweep summary: simulations_run=1 memo_hits=1 checkpoint_hits=0 inflight_joins=0 retries=0 failures=0 "
	if !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("summary = %q, want prefix %q", buf.String(), want)
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

// TestPointString keeps the progress-output key format stable.
func TestPointString(t *testing.T) {
	pt := Point{Workload: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredDefault, CacheMB: 256}
	if got, want := pt.String(), "mcf_r|alloy||256"; got != want {
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
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
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

// TestRunLeaderCancellationDoesNotPoisonWaiters is the regression hammer
// for singleflight poisoning: the leader's context is cancelled while 8
// live-context waiters are parked on its in-flight record. The old code
// broadcast the leader's ctx.Err() to everyone — waiters received a
// cancellation that was never theirs and the point was never executed.
// Now the leader abandons the call, one waiter takes over, and the point
// still completes exactly once; no waiter ever sees context.Canceled.
func TestRunLeaderCancellationDoesNotPoisonWaiters(t *testing.T) {
	const waiters = 8
	r := NewRunner(microParams())

	var sims atomic.Int32
	leaderStarted := make(chan struct{})
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		if sims.Add(1) == 1 {
			// First (doomed) leader: park until its context dies.
			close(leaderStarted)
			<-ctx.Done()
			return core.Result{}, ctx.Err()
		}
		// Successor leader: completes normally.
		return core.Result{ExecCycles: 42}, nil
	}

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.Run(lctx, "mcf_r", core.DesignAlloy, core.PredDefault, 0)
		leaderErr <- err
	}()
	<-leaderStarted

	// Park the waiters on the in-flight record before pulling the plug.
	results := make([]core.Result, waiters)
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		i := i
		go func() {
			defer wg.Done()
			results[i], errs[i] = r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
		}()
	}
	deadline := time.Now().Add(5 * time.Second) //alloyvet:allow(determinism) test-harness poll deadline, not simulated time
	for r.Metrics().FlightJoins < waiters {
		if time.Now().After(deadline) { //alloyvet:allow(determinism) test-harness poll deadline, not simulated time
			t.Fatalf("only %d of %d waiters joined the in-flight call", r.Metrics().FlightJoins, waiters)
		}
		time.Sleep(time.Millisecond)
	}

	lcancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want its own Canceled", err)
	}
	wg.Wait()

	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d poisoned with %v, want the completed result", i, errs[i])
		}
		if results[i].ExecCycles != 42 {
			t.Fatalf("waiter %d got ExecCycles=%v, want 42", i, results[i].ExecCycles)
		}
	}
	// Exactly two simulate calls: the doomed leader and its successor.
	if n := sims.Load(); n != 2 {
		t.Fatalf("%d simulate calls, want 2 (cancelled leader + takeover)", n)
	}
	m := r.Metrics()
	if m.PointsRun != 1 {
		t.Fatalf("PointsRun=%d, want 1 (the takeover's success)", m.PointsRun)
	}
	if m.Failures != 0 {
		t.Fatalf("Failures=%d after a leader abandonment, want 0", m.Failures)
	}
	res, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil || res.ExecCycles != 42 {
		t.Fatalf("memo after takeover: %+v, %v", res.ExecCycles, err)
	}
}

// TestRunLeaderCancellationAllWaitersCancelled: when every interested
// caller is cancelled, nobody executes the point and each caller gets its
// *own* context error — the abandonment loop must not spin or execute a
// simulation under a dead context.
func TestRunLeaderCancellationAllWaitersCancelled(t *testing.T) {
	r := NewRunner(microParams())
	leaderStarted := make(chan struct{})
	var sims atomic.Int32
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		sims.Add(1)
		close(leaderStarted)
		<-ctx.Done()
		return core.Result{}, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background()) // shared by leader and waiter
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, "mcf_r", core.DesignAlloy, core.PredDefault, 0)
		leaderErr <- err
	}()
	<-leaderStarted
	waiterErr := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx, "mcf_r", core.DesignAlloy, core.PredDefault, 0)
		waiterErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second) //alloyvet:allow(determinism) test-harness poll deadline, not simulated time
	for r.Metrics().FlightJoins == 0 {
		if time.Now().After(deadline) { //alloyvet:allow(determinism) test-harness poll deadline, not simulated time
			t.Fatal("waiter never joined")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want Canceled", err)
	}
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: %v, want Canceled", err)
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("%d simulate calls after total cancellation, want 1", n)
	}
}

// TestRunWaiterCancellation: a waiter joined onto a leader's in-flight
// simulation must unblock with its own ctx.Err() when cancelled, while the
// leader finishes unperturbed and its result still lands in the memo.
func TestRunWaiterCancellation(t *testing.T) {
	r := NewRunner(microParams())
	started := make(chan struct{})
	release := make(chan struct{})
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		close(started)
		<-release
		return core.Result{ExecCycles: 42}, nil
	}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
		leaderErr <- err
	}()
	<-started

	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	waiterErr := make(chan error, 1)
	go func() {
		_, err := r.Run(wctx, "mcf_r", core.DesignAlloy, core.PredDefault, 0)
		waiterErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second) //alloyvet:allow(determinism) test-harness poll deadline, not simulated time
	for r.Metrics().FlightJoins == 0 {
		if time.Now().After(deadline) { //alloyvet:allow(determinism) test-harness poll deadline, not simulated time
			t.Fatal("waiter never joined the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}
	wcancel()
	if err := <-waiterErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter returned %v, want Canceled", err)
	}

	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader failed after waiter cancellation: %v", err)
	}
	res, err := r.Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil || res.ExecCycles != 42 {
		t.Fatalf("memoized result after waiter cancellation: %+v, %v", res, err)
	}
	if m := r.Metrics(); m.MemoHits != 1 {
		t.Fatalf("final Run was not a memo hit (hits=%d)", m.MemoHits)
	}
}

// TestRunnerFlightDumpRetention: a real micro run leaves a flight dump
// retrievable by point; DisableFlight suppresses it.
func TestRunnerFlightDumpRetention(t *testing.T) {
	r := NewRunner(microParams())
	pt := Point{Workload: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredDefault}
	if _, err := r.Run(context.Background(), pt.Workload, pt.Design, pt.Predictor, 0); err != nil {
		t.Fatal(err)
	}
	dump, ok := r.FlightDump(pt)
	if !ok {
		t.Fatal("no flight dump retained after a successful run")
	}
	if !strings.Contains(dump, `"columns":["cycle"`) || !strings.Contains(dump, `"spans_sampled":`) {
		t.Fatalf("dump missing schema markers: %.120s", dump)
	}

	off := microParams()
	off.DisableFlight = true
	r2 := NewRunner(off)
	if _, err := r2.Run(context.Background(), pt.Workload, pt.Design, pt.Predictor, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.FlightDump(pt); ok {
		t.Fatal("DisableFlight still recorded a dump")
	}
}

// TestFailureRecordCarriesFlight: when a point fails after its simulation
// ran, the failure record carries the flight dump the attempt left
// behind, and WriteSummary flags the attachment.
func TestFailureRecordCarriesFlight(t *testing.T) {
	r := NewRunner(microParams())
	key := r.normalize(Point{Workload: "mcf_r", Design: core.DesignAlloy})
	r.noteFlight(key, `{"columns":["cycle"],"drops":0,"rows":[]}`)
	r.recordFailure(key, 2, errors.New("post-run gate trip"))

	recs := r.FailureRecords()
	if len(recs) != 1 || recs[0].Flight == "" {
		t.Fatalf("failure records %+v, want one with a flight dump", recs)
	}
	var sb strings.Builder
	r.WriteSummary(&sb)
	if !strings.Contains(sb.String(), "[flight recording attached]") {
		t.Fatalf("summary missing attachment note:\n%s", sb.String())
	}
}

// TestFlightRetentionEvictsOldest: the ring keeps only the newest
// flightCap dumps.
func TestFlightRetentionEvictsOldest(t *testing.T) {
	r := NewRunner(microParams())
	for i := 0; i < flightCap+4; i++ {
		r.noteFlight(Point{Workload: "w", CacheMB: uint64(i + 1)}, "dump")
	}
	r.mu.Lock()
	n := len(r.flights)
	oldest := r.flights[0].pt
	r.mu.Unlock()
	if n != flightCap {
		t.Fatalf("retained %d dumps, want %d", n, flightCap)
	}
	if oldest.CacheMB != 5 {
		t.Fatalf("oldest retained point %v, want the 5th insert", oldest)
	}
}
