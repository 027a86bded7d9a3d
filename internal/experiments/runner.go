// Package experiments defines one registered experiment per table and
// figure in the paper's evaluation, and the Runner that executes the
// underlying simulations with memoization (the baseline run of a workload
// is shared by every design comparison).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
	"alloysim/internal/trace"
)

// Params sets the global simulation scale for all experiments.
type Params struct {
	// Scale divides all capacities and footprints (see core.Config.Scale).
	Scale uint64
	// InstructionsPerCore is the measured budget per core.
	InstructionsPerCore uint64
	// WarmupRefs per core before measurement.
	WarmupRefs uint64
	// Cores in the rate-mode system.
	Cores int
	// CacheMB is the paper-scale DRAM-cache size in MB (default 256).
	CacheMB uint64
	// GapScale multiplies workload instruction gaps (intensity calibration).
	GapScale uint32
	// Seed perturbs the generators.
	Seed uint64
	// Parallelism bounds concurrent simulations during Prefetch (each
	// simulation is single-threaded and independent), and the number of
	// recorded warmup fronts the runner keeps. Zero means runtime.NumCPU.
	Parallelism int
	// Retries is how many times a failed point is re-attempted before the
	// failure is recorded as final. Configuration errors and parent-context
	// cancellation are never retried; per-point timeouts are.
	Retries int
	// PointTimeout bounds the wall time of a single simulation attempt.
	// Zero means no per-point limit.
	PointTimeout time.Duration
	// Progress, when non-nil, receives one line per completed simulation.
	// The runner serializes all writes, so any writer is safe even under
	// concurrent Prefetch.
	Progress io.Writer
	// DisableFlight turns off the per-simulation flight recorder. The
	// recorder is on by default (its cost is a handful of counter reads
	// per 2^16 cycles) so every failure record carries the final epochs
	// of the run that produced it; benchmarks measuring the simulator
	// alone may switch it off.
	DisableFlight bool
}

// DefaultParams returns the scale used for the committed EXPERIMENTS.md
// numbers: 1/64 capacity scale, 1.5 M instructions per core.
func DefaultParams() Params {
	return Params{
		Scale:               64,
		InstructionsPerCore: 1_500_000,
		WarmupRefs:          50_000,
		Cores:               8,
		CacheMB:             256,
		GapScale:            2,
		Seed:                1,
	}
}

// QuickParams returns a reduced scale for smoke tests and benchmarks.
func QuickParams() Params {
	p := DefaultParams()
	p.InstructionsPerCore = 250_000
	p.WarmupRefs = 12_000
	return p
}

// Runner executes simulations with memoization, singleflight
// deduplication, bounded retry, and optional disk checkpointing. Run is
// safe for concurrent use; Prefetch exploits that to fill the memo in
// parallel. Concurrent Run calls that reach the same Point collapse onto
// one simulation: the first caller becomes the leader, later callers wait
// on its in-flight record and share its outcome, so the shared DesignNone
// baseline is never simulated twice however many Speedup calls race to it.
type Runner struct {
	p Params //alloyvet:owner NewRunner; immutable

	mu       sync.Mutex
	cache    map[Point]core.Result    //alloyvet:guard mu
	inflight map[Point]*inflightCall  //alloyvet:guard mu
	failures map[Point]*FailureRecord //alloyvet:guard mu
	m        Metrics                  //alloyvet:guard mu

	// ckpt is non-nil once EnableCheckpoint succeeds; it owns the file
	// path and serializes snapshot writes.
	//alloyvet:guard mu
	ckpt *checkpointWriter

	// pw serializes all operator-facing output: Prefetch completes points
	// on many goroutines, and io.Writer implementations (files, buffers)
	// are not safe for concurrent use. WriteSummary renders through the
	// same lock, so a summary line can never interleave with a progress
	// line even when they target the same stream.
	//alloyvet:owner NewRunner; the SyncWriter locks itself
	pw *obs.SyncWriter

	// simulate is the point-execution function; tests substitute it to
	// count or fail executions without paying for real simulations.
	//alloyvet:owner NewRunner; immutable outside tests
	simulate func(ctx context.Context, pt Point) (core.Result, error)

	// flights retains the flight-recorder dump of each point's most
	// recent execution (success or failure), bounded to flightCap
	// entries evicted oldest-first. Failure dumps also land in the
	// point's FailureRecord; success dumps serve the validate harness,
	// which attaches them to gate-trip reports after runs complete.
	flights []flightEntry //alloyvet:guard mu

	// fronts holds recorded warmup fronts (core.WarmRecord), one per
	// workload, least recently used first and at most parallelism() of
	// them. Every point of a workload shares one front, since the Params
	// are fixed, so the workload name is the key.
	fronts []frontEntry //alloyvet:guard mu
}

// frontEntry is one workload's warmup record. ready is false while the
// point recording it runs; points that find it so warm directly.
type frontEntry struct {
	workload string
	rec      *core.WarmRecord
	ready    bool
}

// flightEntry pairs a point with its most recent flight dump.
type flightEntry struct {
	pt   Point
	dump string
}

// flightCap bounds how many per-point flight dumps the runner retains.
const flightCap = 16

// inflightCall is the singleflight record for one running Point.
type inflightCall struct {
	done chan struct{} // closed when res/err/abandoned are final
	res  core.Result
	err  error
	// abandoned marks a call whose leader was cancelled before producing
	// an outcome. The leader's ctx.Err() belongs to the leader alone:
	// broadcasting it would poison waiters whose own contexts are live and
	// leave the point unexecuted. Waiters that observe abandoned re-enter
	// the singleflight and one of them becomes the new leader.
	abandoned bool
}

// FailureRecord describes the final outcome of a point whose every
// attempt failed. Flight holds the flight-recorder dump (JSON) captured
// from the failing simulation's last attempt — the epochs leading up to
// the failure — when the recorder was enabled.
type FailureRecord struct {
	Point    Point
	Attempts int
	Err      string
	Flight   string
}

// Metrics summarizes runner activity. All durations are wall time spent
// inside simulations (summed across concurrent runs, so it can exceed
// elapsed time during Prefetch).
type Metrics struct {
	// PointsRun counts simulations actually executed (successful attempts).
	PointsRun uint64
	// MemoHits counts Run calls served from the in-memory memo.
	MemoHits uint64
	// CheckpointHits counts points restored from a checkpoint file.
	CheckpointHits uint64
	// FlightJoins counts Run calls that waited on a concurrent duplicate
	// instead of simulating.
	FlightJoins uint64
	// Retries counts re-attempts after a transient failure.
	Retries uint64
	// Failures counts points whose every attempt failed.
	Failures uint64
	// WarmReplays counts simulation attempts that warmed from another
	// point's recorded warmup front instead of simulating the L3.
	WarmReplays uint64
	// SimWall is cumulative wall time inside successful simulations.
	SimWall time.Duration
	// MaxPointWall is the slowest successful simulation.
	MaxPointWall time.Duration
}

// NewRunner creates a runner.
func NewRunner(p Params) *Runner {
	r := &Runner{
		p:        p,
		cache:    make(map[Point]core.Result),
		inflight: make(map[Point]*inflightCall),
		failures: make(map[Point]*FailureRecord),
		pw:       obs.NewSyncWriter(p.Progress),
	}
	r.simulate = r.simulatePoint
	return r
}

// Point identifies one simulation in the memo space.
type Point struct {
	Workload  string             `json:"workload"`
	Design    core.Design        `json:"design"`
	Predictor core.PredictorKind `json:"predictor"`
	CacheMB   uint64             `json:"cache_mb"`
}

// String renders the point in the stable "workload|design|pred|MB" form
// used by progress output.
func (pt Point) String() string {
	return fmt.Sprintf("%s|%s|%s|%d", pt.Workload, pt.Design, pt.Predictor, pt.CacheMB)
}

// normalize returns the canonical spelling of pt under the runner's
// defaults, so distinct argument spellings of one simulation share one
// memo slot, one singleflight entry and one checkpoint record.
func (r *Runner) normalize(pt Point) Point {
	if pt.CacheMB == 0 {
		pt.CacheMB = r.p.CacheMB
	}
	if pt.Design == core.DesignNone {
		pt.CacheMB = 0 // baseline is independent of cache size
	}
	return pt
}

// Prefetch runs the given points concurrently (bounded by Parallelism)
// so later sequential Run calls hit the memo. All points run to
// completion even when some fail; every failure is reported, joined in
// input order. Cancelling ctx stops launching new points and cancels the
// in-flight ones.
func (r *Runner) Prefetch(ctx context.Context, points []Point) error {
	sem := make(chan struct{}, r.parallelism())
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i, pt := range points {
		i, pt := i, pt
		// Consult the context before the semaphore: a two-way select would
		// nondeterministically pick a free slot over an already-cancelled
		// context. Every point not launched gets its own recorded error, so
		// callers can tell exactly which simulations never ran.
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("prefetch %s: skipped: %w", pt, err)
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			errs[i] = fmt.Errorf("prefetch %s: skipped: %w", pt, ctx.Err())
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := r.Run(ctx, pt.Workload, pt.Design, pt.Predictor, pt.CacheMB); err != nil {
				errs[i] = fmt.Errorf("prefetch %s: %w", pt, err)
			}
		}()
	}
	// Every worker's Run honors ctx (cancellation fails its point fast),
	// so after a cancel this join is bounded by one engine quantum per
	// in-flight worker — the wait cannot outlive the workers.
	wg.Wait() //alloyvet:allow(ctxflow)
	return errors.Join(errs...)
}

// Params returns the runner's parameters.
func (r *Runner) Params() Params { return r.p }

// parallelism resolves Params.Parallelism's default.
func (r *Runner) parallelism() int {
	if r.p.Parallelism > 0 {
		return r.p.Parallelism
	}
	return runtime.NumCPU()
}

// Run simulates one (workload, design, predictor, cacheMB) point. cacheMB
// is paper-scale; zero uses the runner default. Results are memoized;
// concurrent calls for the same point share a single execution, and
// waiters share the leader's outcome, errors included — with one
// exception: a leader whose own context is cancelled abandons the call
// rather than broadcasting its ctx.Err(), and a live-context waiter takes
// over as the new leader. A cancellation therefore only ever surfaces to
// the caller whose context it belongs to, and the point still completes
// as long as any interested caller survives.
func (r *Runner) Run(ctx context.Context, workload string, d core.Design, pk core.PredictorKind, cacheMB uint64) (core.Result, error) {
	key := r.normalize(Point{Workload: workload, Design: d, Predictor: pk, CacheMB: cacheMB})

	for {
		r.mu.Lock()
		if res, ok := r.cache[key]; ok {
			r.m.MemoHits++
			r.mu.Unlock()
			return res, nil
		}
		if c, ok := r.inflight[key]; ok {
			r.m.FlightJoins++
			r.mu.Unlock()
			select {
			case <-c.done:
				if c.abandoned {
					// The leader was cancelled, not the point. If this
					// waiter's own context is still live it loops around
					// and competes to become the new leader; the inflight
					// entry is already gone.
					if err := ctx.Err(); err != nil {
						return core.Result{}, err
					}
					continue
				}
				return c.res, c.err
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			}
		}
		c := &inflightCall{done: make(chan struct{})}
		r.inflight[key] = c
		r.mu.Unlock()

		res, err := r.runPoint(ctx, key)

		// A failure caused by this leader's own cancellation is not an
		// outcome of the point: mark the call abandoned so waiters retry
		// instead of inheriting a context error that was never theirs.
		abandoned := err != nil && ctx.Err() != nil

		r.mu.Lock()
		delete(r.inflight, key)
		if err == nil {
			r.cache[key] = res
		}
		r.mu.Unlock()
		c.res, c.err, c.abandoned = res, err, abandoned
		close(c.done)

		if err == nil {
			// saveCheckpoint re-reads r.ckpt under the lock and is a
			// no-op when checkpointing is disabled.
			if cerr := r.saveCheckpoint(); cerr != nil {
				r.progressf("  checkpoint write failed: %v\n", cerr)
			}
		}
		return res, err
	}
}

// runPoint executes one point with the configured retry budget. Only the
// singleflight leader reaches here.
func (r *Runner) runPoint(ctx context.Context, key Point) (core.Result, error) {
	attempts := 1 + r.p.Retries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			lastErr = err
			r.recordFailure(key, attempt, err)
			return core.Result{}, err
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if r.p.PointTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.p.PointTimeout)
		}
		// Wall-clock timing of the host process, not simulated time: it
		// feeds the operator-facing Metrics (SimWall, MaxPointWall) and
		// never influences a simulation result.
		start := time.Now() //alloyvet:allow(determinism)
		res, err := r.simulate(actx, key)
		elapsed := time.Since(start) //alloyvet:allow(determinism)
		cancel()
		if err == nil {
			r.mu.Lock()
			r.m.PointsRun++
			r.m.SimWall += elapsed
			if elapsed > r.m.MaxPointWall {
				r.m.MaxPointWall = elapsed
			}
			delete(r.failures, key)
			r.mu.Unlock()
			r.progressf("  ran %s in %.2fs (attempt %d)\n", key, elapsed.Seconds(), attempt)
			return res, nil
		}
		lastErr = err
		r.recordFailure(key, attempt, err)
		var perm permanentError
		if errors.As(err, &perm) || ctx.Err() != nil {
			break // configuration errors and parent cancellation never heal
		}
		if attempt < attempts {
			r.mu.Lock()
			r.m.Retries++
			r.mu.Unlock()
			r.progressf("  retrying %s after attempt %d: %v\n", key, attempt, err)
		}
	}
	// A leader abandoned by its own context is not a point failure: the
	// call is handed to a surviving waiter (or retried by the next caller),
	// so only genuine exhaustion and permanent errors count.
	if ctx.Err() == nil {
		r.mu.Lock()
		r.m.Failures++
		r.mu.Unlock()
	}
	return core.Result{}, lastErr
}

// permanentError wraps failures that no retry can fix (configuration
// errors detected before the simulation starts).
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// simulatePoint is the real point execution: build a system from the
// runner params and run it under ctx, with the always-on flight
// recorder attached so a failing run leaves its final epochs behind.
// The first point of a workload records its warmup front and later
// points replay it (takeFront).
func (r *Runner) simulatePoint(ctx context.Context, key Point) (core.Result, error) {
	sys, err := core.NewSystem(r.pointConfig(key))
	if err != nil {
		return core.Result{}, permanentError{err}
	}
	rec, replay := r.takeFront(key.Workload)
	switch {
	case replay:
		err = sys.ReplayWarmup(rec)
	case rec != nil:
		defer r.publishFront(rec)
		err = sys.RecordWarmup(rec)
	}
	if err != nil {
		return core.Result{}, permanentError{err}
	}
	var fr *obs.FlightRecorder
	if !r.p.DisableFlight {
		fr = obs.NewFlightRecorder(64, 4096, 256)
		sys.EnableFlightRecorder(fr)
	}
	res, err := sys.RunContext(ctx)
	if fr != nil {
		var sb strings.Builder
		if werr := fr.WriteJSON(&sb); werr == nil {
			r.noteFlight(key, sb.String())
		}
	}
	return res, err
}

// takeFront looks up the workload's warmup front. A ready record comes
// back to replay. Without an entry the point records a new one, unless
// every slot holds a record still being recorded; then, and while the
// workload's own record is being recorded, the point warms directly
// (nil), with no waiting.
func (r *Runner) takeFront(workload string) (rec *core.WarmRecord, replay bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := slices.IndexFunc(r.fronts, func(e frontEntry) bool { return e.workload == workload }); i >= 0 {
		e := r.fronts[i]
		if !e.ready {
			return nil, false
		}
		r.fronts = append(slices.Delete(r.fronts, i, i+1), e)
		r.m.WarmReplays++
		return e.rec, true
	}
	if len(r.fronts) >= r.parallelism() {
		i := slices.IndexFunc(r.fronts, func(e frontEntry) bool { return e.ready })
		if i < 0 {
			return nil, false
		}
		r.fronts = slices.Delete(r.fronts, i, i+1)
	}
	rec = &core.WarmRecord{}
	r.fronts = append(r.fronts, frontEntry{workload: workload, rec: rec})
	return rec, false
}

// publishFront ends a recording point's hold on its entry: a complete
// record becomes ready to replay, and an incomplete one (the run failed
// or was cancelled during warmup) is dropped, so a later point records
// afresh.
func (r *Runner) publishFront(rec *core.WarmRecord) {
	complete := rec.Complete()
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, e := range r.fronts {
		if e.rec != rec {
			continue
		}
		if complete {
			r.fronts[i].ready = true
		} else {
			r.fronts = slices.Delete(r.fronts, i, i+1)
		}
		return
	}
}

// pointConfig derives the core.Config one point simulates under the
// runner's params — the single source of truth shared by the memoized
// sweep and the phase experiment's instrumented direct runs.
func (r *Runner) pointConfig(key Point) core.Config {
	cfg := core.DefaultConfig(key.Workload)
	cfg.Design = key.Design
	cfg.Predictor = key.Predictor
	cfg.Scale = r.p.Scale
	cfg.InstructionsPerCore = r.p.InstructionsPerCore
	cfg.WarmupRefs = r.p.WarmupRefs
	cfg.Cores = r.p.Cores
	cfg.GapScale = r.p.GapScale
	cfg.Seed = r.p.Seed
	if key.CacheMB > 0 {
		cfg.DRAMCacheBytes = key.CacheMB << 20
	}
	return cfg
}

// noteFlight records a point's most recent flight dump, evicting the
// oldest entry past flightCap.
func (r *Runner) noteFlight(key Point, dump string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.flights {
		if r.flights[i].pt == key {
			r.flights[i].dump = dump
			return
		}
	}
	r.flights = append(r.flights, flightEntry{pt: key, dump: dump})
	if len(r.flights) > flightCap {
		r.flights = r.flights[1:]
	}
}

// FlightDump returns the flight-recorder dump of the point's most recent
// execution, if still retained.
func (r *Runner) FlightDump(pt Point) (string, bool) {
	key := r.normalize(pt)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.flights {
		if r.flights[i].pt == key {
			return r.flights[i].dump, true
		}
	}
	return "", false
}

// recordFailure updates the per-point failure record, attaching the
// flight dump the failing attempt left behind (noteFlight runs inside
// simulatePoint, so by the time the error propagates here the dump for
// this point is already retained).
func (r *Runner) recordFailure(key Point, attempt int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.failures[key]
	if f == nil {
		f = &FailureRecord{Point: key}
		r.failures[key] = f
	}
	f.Attempts = attempt
	f.Err = err.Error()
	for i := range r.flights {
		if r.flights[i].pt == key {
			f.Flight = r.flights[i].dump
			break
		}
	}
}

// FailureRecords returns the final failure record of every point whose
// attempts were exhausted, sorted by point key.
func (r *Runner) FailureRecords() []FailureRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FailureRecord, 0, len(r.failures))
	//alloyvet:allow(determinism) collection order is irrelevant: sorted by point key below
	for _, f := range r.failures {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point.String() < out[j].Point.String() })
	return out
}

// Metrics returns a snapshot of the runner's counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m
}

// WriteSummary renders the structured run summary: how much work the
// sweep did, how much the memo and checkpoint absorbed, and where the
// wall time went — as one key=value line, stable for scripts to grep and
// parse. The write goes through the runner's serialized writer, so it can
// never interleave with a concurrent progress line, even when w and the
// Progress writer share a stream.
func (r *Runner) WriteSummary(w io.Writer) {
	m := r.Metrics()
	var mean time.Duration
	if m.PointsRun > 0 {
		mean = m.SimWall / time.Duration(m.PointsRun)
	}
	r.pw.Fprintf(w, "sweep summary: simulations_run=%d memo_hits=%d checkpoint_hits=%d inflight_joins=%d retries=%d failures=%d sim_wall_s=%.1f point_mean_s=%.2f point_max_s=%.2f warm_replays=%d\n",
		m.PointsRun, m.MemoHits, m.CheckpointHits, m.FlightJoins, m.Retries, m.Failures,
		m.SimWall.Seconds(), mean.Seconds(), m.MaxPointWall.Seconds(), m.WarmReplays)
	for _, f := range r.FailureRecords() {
		note := ""
		if f.Flight != "" {
			note = " [flight recording attached]"
		}
		r.pw.Fprintf(w, "  failed: %s after %d attempt(s): %s%s\n", f.Point, f.Attempts, f.Err, note)
	}
}

// RegisterMetrics exports the runner's sweep counters under the given
// prefix (e.g. "runner"). Reads snapshot under the runner lock at dump
// time.
func (r *Runner) RegisterMetrics(x obs.Exporter, prefix string) {
	x.Counter(prefix+"_points_run_total", "simulations actually executed", func() uint64 { return r.Metrics().PointsRun })
	x.Counter(prefix+"_memo_hits_total", "Run calls served from the in-memory memo", func() uint64 { return r.Metrics().MemoHits })
	x.Counter(prefix+"_checkpoint_hits_total", "points restored from a checkpoint file", func() uint64 { return r.Metrics().CheckpointHits })
	x.Counter(prefix+"_inflight_joins_total", "Run calls that joined a concurrent duplicate", func() uint64 { return r.Metrics().FlightJoins })
	x.Counter(prefix+"_retries_total", "re-attempts after transient failures", func() uint64 { return r.Metrics().Retries })
	x.Counter(prefix+"_failures_total", "points whose every attempt failed", func() uint64 { return r.Metrics().Failures })
	x.Counter(prefix+"_warm_replays_total", "simulation attempts warmed from a recorded warmup front", func() uint64 { return r.Metrics().WarmReplays })
	x.Gauge(prefix+"_sim_wall_seconds", "cumulative wall time inside successful simulations", func() float64 { return r.Metrics().SimWall.Seconds() })
}

// progressf writes one progress line, serialized across goroutines.
func (r *Runner) progressf(format string, args ...interface{}) {
	r.pw.Printf(format, args...)
}

// Speedup returns the speedup of a design run over the workload baseline.
func (r *Runner) Speedup(ctx context.Context, workload string, d core.Design, pk core.PredictorKind, cacheMB uint64) (float64, error) {
	base, err := r.Run(ctx, workload, core.DesignNone, core.PredDefault, 0)
	if err != nil {
		return 0, err
	}
	res, err := r.Run(ctx, workload, d, pk, cacheMB)
	if err != nil {
		return 0, err
	}
	return res.SpeedupOver(base), nil
}

// DetailedWorkloads returns the ten memory-intensive workload names in
// Table 3 order.
func DetailedWorkloads() []string {
	var names []string
	for _, p := range trace.MemoryIntensive() {
		names = append(names, p.Name)
	}
	return names
}

// OtherWorkloads returns the fourteen Figure 11 workload names.
func OtherWorkloads() []string {
	var names []string
	for _, p := range trace.Others() {
		names = append(names, p.Name)
	}
	return names
}

// GeoMeanSpeedup runs a design over all workloads and returns per-workload
// speedups plus their geometric mean.
func (r *Runner) GeoMeanSpeedup(ctx context.Context, workloads []string, d core.Design, pk core.PredictorKind, cacheMB uint64) (map[string]float64, float64, error) {
	per := make(map[string]float64, len(workloads))
	var vals []float64
	for _, w := range workloads {
		s, err := r.Speedup(ctx, w, d, pk, cacheMB)
		if err != nil {
			return nil, 0, err
		}
		per[w] = s
		vals = append(vals, s)
	}
	return per, stats.GeoMean(vals), nil
}

// Experiment is one registered table or figure reproduction.
type Experiment struct {
	// ID matches the DESIGN.md per-experiment index, e.g. "fig4".
	ID string
	// Title is the paper artifact being reproduced.
	Title string
	// Run executes the experiment and renders its table to w. It must
	// honor ctx: cancellation aborts the underlying simulations between
	// engine quanta.
	Run func(ctx context.Context, r *Runner, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
