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
	"sync"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/cpu"
	"alloysim/internal/dram"
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
	// Parallelism is the number of Prefetch workers (each simulation is
	// single-threaded and independent). Zero means runtime.NumCPU.
	Parallelism int
	// Progress, when non-nil, receives one line per completed simulation.
	// The runner serializes all writes, so any writer is safe even under
	// concurrent Prefetch.
	Progress io.Writer
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

// Runner executes simulations with memoization and optional disk
// checkpointing. Run is safe for concurrent use; Prefetch exploits that to
// fill the memo in parallel, starting each distinct point once, so a
// point that a Prefetch list spells twice is simulated once.
type Runner struct {
	p Params //alloyvet:owner NewRunner; immutable

	mu       sync.Mutex
	cache    map[Point]core.Result   //alloyvet:guard mu
	failures map[Point]FailureRecord //alloyvet:guard mu
	m        Metrics                 //alloyvet:guard mu

	// ckpt is non-nil once EnableCheckpoint succeeds; it owns the file
	// path and serializes appends. ckptErr is the first append that
	// failed (CheckpointErr).
	//alloyvet:guard mu
	ckpt    *checkpointWriter
	ckptErr error //alloyvet:guard mu

	// pw serializes all operator-facing output: Prefetch completes points
	// on many goroutines, and io.Writer implementations (files, buffers)
	// are not safe for concurrent use. WriteSummary renders through the
	// same lock, so a summary line can never interleave with a progress
	// line even when they target the same stream.
	//alloyvet:owner NewRunner; the SyncWriter locks itself
	pw *obs.SyncWriter

	// simulate is the point-execution function, warming the point as its
	// plan says; tests substitute it to count or fail executions without
	// paying for real simulations.
	//alloyvet:owner NewRunner; immutable outside tests
	simulate func(ctx context.Context, pt Point, plan *warmPlan) (core.Result, error)
}

// FailureRecord describes a point whose simulation failed.
type FailureRecord struct {
	Point Point
	Err   string
}

// Metrics summarizes runner activity. All durations are wall time spent
// inside simulations (summed across concurrent runs, so it can exceed
// elapsed time during Prefetch).
type Metrics struct {
	// PointsRun counts simulations that completed.
	PointsRun uint64
	// MemoHits counts Run calls served from the in-memory memo.
	MemoHits uint64
	// CheckpointHits counts points restored from a checkpoint file.
	CheckpointHits uint64
	// Failures counts simulations that failed. A simulation stopped by its
	// caller's cancellation is not a failure.
	Failures uint64
	// WarmReplays counts simulations that warmed from another point's
	// recorded warmup front instead of simulating the L3, copies included.
	WarmReplays uint64
	// WarmCopies counts the replays that also copied another point's
	// warmed tag store instead of replaying its Warm calls.
	WarmCopies uint64
	// WarmWall is cumulative wall time inside warmups (System.Warm):
	// direct ones, recordings, replays and copies, failed ones included.
	WarmWall time.Duration
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
		failures: make(map[Point]FailureRecord),
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
	Knobs
}

// Knobs are the settings the ablations vary, each a core.Config field.
// A zero knob keeps the default, and zero knobs are left out of a Point's
// JSON, so a default point marshals as it did before knobs existed.
type Knobs struct {
	MLP             int    `json:"mlp,omitempty"`              // CPU.MLP
	WriteBuffer     int    `json:"write_buffer,omitempty"`     // WriteBufferEntries
	StackedChannels int    `json:"stacked_channels,omitempty"` // Stacked.Channels
	L3Policy        string `json:"l3_policy,omitempty"`        // L3Policy
	DCPolicy        string `json:"dc_policy,omitempty"`        // DCPolicy
	Seed            uint64 `json:"seed,omitempty"`             // Seed, in place of Params.Seed
}

// String renders the point in the stable "workload|design|pred|MB" form
// used by progress output, followed by "|name=value" for each non-zero
// knob.
func (pt Point) String() string {
	s := fmt.Sprintf("%s|%s|%s|%d", pt.Workload, pt.Design, pt.Predictor, pt.CacheMB)
	if pt.MLP != 0 {
		s += fmt.Sprintf("|mlp=%d", pt.MLP)
	}
	if pt.WriteBuffer != 0 {
		s += fmt.Sprintf("|write_buffer=%d", pt.WriteBuffer)
	}
	if pt.StackedChannels != 0 {
		s += fmt.Sprintf("|stacked_channels=%d", pt.StackedChannels)
	}
	if pt.L3Policy != "" {
		s += "|l3_policy=" + pt.L3Policy
	}
	if pt.DCPolicy != "" {
		s += "|dc_policy=" + pt.DCPolicy
	}
	if pt.Seed != 0 {
		s += fmt.Sprintf("|seed=%d", pt.Seed)
	}
	return s
}

// normalize returns the canonical spelling of pt under the runner's
// defaults, so distinct spellings of one simulation share one memo slot,
// one Prefetch launch and one checkpoint record. A predictor equal to
// the design's pairing and a knob equal to its default fold to zero, and
// the baseline drops what it cannot feel: the cache size, the stacked
// channels and the DRAM-cache policy.
func (r *Runner) normalize(pt Point) Point {
	if pt.CacheMB == 0 {
		pt.CacheMB = r.p.CacheMB
	}
	if pt.Predictor == core.DefaultPredictor(pt.Design) {
		pt.Predictor = core.PredDefault
	}
	if pt.MLP == cpu.DefaultConfig().MLP {
		pt.MLP = 0
	}
	if pt.WriteBuffer == core.DefaultWriteBufferEntries {
		pt.WriteBuffer = 0
	}
	if pt.StackedChannels == dram.StackedConfig().Channels {
		pt.StackedChannels = 0
	}
	if pt.L3Policy == core.DefaultL3Policy {
		pt.L3Policy = ""
	}
	if pt.Seed == r.p.Seed {
		pt.Seed = 0
	}
	if pt.Design == core.DesignNone {
		pt.CacheMB, pt.StackedChannels, pt.DCPolicy = 0, 0, ""
	}
	return pt
}

// parallelism resolves Params.Parallelism's default.
func (r *Runner) parallelism() int {
	if r.p.Parallelism > 0 {
		return r.p.Parallelism
	}
	return runtime.NumCPU()
}

// Run simulates one (workload, design, predictor, cacheMB) point, warmed
// directly. cacheMB is paper-scale; zero uses the runner default. Results
// are memoized.
func (r *Runner) Run(ctx context.Context, workload string, d core.Design, pk core.PredictorKind, cacheMB uint64) (core.Result, error) {
	return r.run(ctx, Point{Workload: workload, Design: d, Predictor: pk, CacheMB: cacheMB}, nil)
}

// run is Run for any point, knobs included: a memo hit, or one simulation
// under ctx, warmed as plan says, whose result is memoized and
// checkpointed. Run and Speedup pass no plan: their misses take the zero
// plan, allocated only on a miss.
func (r *Runner) run(ctx context.Context, pt Point, plan *warmPlan) (core.Result, error) {
	key := r.normalize(pt)
	r.mu.Lock()
	if res, ok := r.cache[key]; ok {
		r.m.MemoHits++
		r.mu.Unlock()
		return res, nil
	}
	r.mu.Unlock()
	if plan == nil {
		plan = new(warmPlan)
	}

	// Wall-clock timing of the host process, not simulated time: it
	// feeds the operator-facing Metrics (SimWall, MaxPointWall) and
	// never influences a simulation result.
	start := time.Now() //alloyvet:allow(determinism)
	res, err := r.simulate(ctx, key, plan)
	elapsed := time.Since(start) //alloyvet:allow(determinism)
	if err != nil {
		// A simulation stopped by the caller's own cancellation says
		// nothing about the point, so it leaves no failure record.
		if !errors.Is(err, ctx.Err()) {
			r.recordFailure(key, err)
		}
		return core.Result{}, err
	}

	r.mu.Lock()
	r.cache[key] = res
	r.m.PointsRun++
	r.m.SimWall += elapsed
	if elapsed > r.m.MaxPointWall {
		r.m.MaxPointWall = elapsed
	}
	r.mu.Unlock()
	r.progressf("  ran %s in %.2fs\n", key, elapsed.Seconds())
	if cerr := r.saveCheckpoint(key, res); cerr != nil {
		r.progressf("  checkpoint write failed: %v\n", cerr)
		r.mu.Lock()
		if r.ckptErr == nil {
			r.ckptErr = cerr
		}
		r.mu.Unlock()
	}
	return res, nil
}

// CheckpointErr returns the first checkpoint append that failed, or nil.
// The point itself completed and is memoized; only its line is missing
// from the file, so a resumed sweep would simulate it again.
func (r *Runner) CheckpointErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ckptErr
}

// Config derives the core.Config a point simulates under p: the one
// derivation shared by the runner, the phase and table3 experiments'
// direct runs and validate.PointConfig. A zero knob keeps
// core.DefaultConfig's value; a zero CacheMB takes p.CacheMB and a zero
// seed p.Seed, as Runner.normalize fills them.
func (p Params) Config(pt Point) core.Config {
	cfg := core.DefaultConfig(pt.Workload)
	cfg.Design = pt.Design
	cfg.Predictor = pt.Predictor
	cfg.Scale = p.Scale
	cfg.InstructionsPerCore = p.InstructionsPerCore
	cfg.WarmupRefs = p.WarmupRefs
	cfg.Cores = p.Cores
	cfg.GapScale = p.GapScale
	cfg.Seed = p.Seed
	if pt.CacheMB == 0 {
		pt.CacheMB = p.CacheMB
	}
	if pt.CacheMB != 0 {
		cfg.DRAMCacheBytes = pt.CacheMB << 20
	}
	if pt.MLP != 0 {
		cfg.CPU.MLP = pt.MLP
	}
	if pt.WriteBuffer != 0 {
		cfg.WriteBufferEntries = pt.WriteBuffer
	}
	if pt.StackedChannels != 0 {
		cfg.Stacked.Channels = pt.StackedChannels
	}
	if pt.L3Policy != "" {
		cfg.L3Policy = pt.L3Policy
	}
	cfg.DCPolicy = pt.DCPolicy
	if pt.Seed != 0 {
		cfg.Seed = pt.Seed
	}
	return cfg
}

// recordFailure records and counts a point's failure.
func (r *Runner) recordFailure(key Point, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures[key] = FailureRecord{Point: key, Err: err.Error()}
	r.m.Failures++
}

// FailureRecords returns the failure record of every point whose
// simulation failed, sorted by point key.
func (r *Runner) FailureRecords() []FailureRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FailureRecord, 0, len(r.failures))
	//alloyvet:allow(determinism) collection order is irrelevant: sorted by point key below
	for _, f := range r.failures {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point.String() < out[j].Point.String() })
	return out
}

// Failure returns the failure record of the first of the points that
// failed, and whether one did.
func (r *Runner) Failure(points []Point) (FailureRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, pt := range points {
		if f, ok := r.failures[r.normalize(pt)]; ok {
			return f, true
		}
	}
	return FailureRecord{}, false
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
	r.pw.Fprintf(w, "sweep summary: simulations_run=%d memo_hits=%d checkpoint_hits=%d failures=%d sim_wall_s=%.1f point_mean_s=%.2f point_max_s=%.2f warm_replays=%d warm_copies=%d warm_s=%.1f\n",
		m.PointsRun, m.MemoHits, m.CheckpointHits, m.Failures,
		m.SimWall.Seconds(), mean.Seconds(), m.MaxPointWall.Seconds(), m.WarmReplays, m.WarmCopies, m.WarmWall.Seconds())
	for _, f := range r.FailureRecords() {
		r.pw.Fprintf(w, "  failed: %s: %s\n", f.Point, f.Err)
	}
}

// RegisterMetrics exports the runner's sweep counters under the given
// prefix (e.g. "runner"). Reads snapshot under the runner lock at dump
// time.
func (r *Runner) RegisterMetrics(x obs.Exporter, prefix string) {
	x.Counter(prefix+"_points_run_total", "simulations actually executed", func() uint64 { return r.Metrics().PointsRun })
	x.Counter(prefix+"_memo_hits_total", "Run calls served from the in-memory memo", func() uint64 { return r.Metrics().MemoHits })
	x.Counter(prefix+"_checkpoint_hits_total", "points restored from a checkpoint file", func() uint64 { return r.Metrics().CheckpointHits })
	x.Counter(prefix+"_failures_total", "simulations that failed", func() uint64 { return r.Metrics().Failures })
	x.Counter(prefix+"_warm_replays_total", "simulations warmed from a recorded warmup front", func() uint64 { return r.Metrics().WarmReplays })
	x.Counter(prefix+"_warm_copies_total", "simulations warmed by copying a recorded DRAM-cache tag store", func() uint64 { return r.Metrics().WarmCopies })
	x.Gauge(prefix+"_sim_wall_seconds", "cumulative wall time inside successful simulations", func() float64 { return r.Metrics().SimWall.Seconds() })
	x.Gauge(prefix+"_warm_seconds", "cumulative wall time inside warmups, recorded, replayed and copied ones included", func() float64 { return r.Metrics().WarmWall.Seconds() })
}

// progressf writes one progress line, serialized across goroutines.
func (r *Runner) progressf(format string, args ...interface{}) {
	r.pw.Printf(format, args...)
}

// Speedup returns the speedup of pt over its baseline: the same workload
// and knobs without a DRAM cache.
func (r *Runner) Speedup(ctx context.Context, pt Point) (float64, error) {
	base, err := r.run(ctx, Point{Workload: pt.Workload, Design: core.DesignNone, Knobs: pt.Knobs}, nil)
	if err != nil {
		return 0, err
	}
	res, err := r.run(ctx, pt, nil)
	if err != nil {
		return 0, err
	}
	return res.SpeedupOver(base), nil
}

// detailedNames and otherNames are the two workload lists, built once.
var detailedNames, otherNames = profileNames(trace.MemoryIntensive()), profileNames(trace.Others())

func profileNames(ps []trace.Profile) []string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// DetailedWorkloads returns the ten memory-intensive workload names in
// Table 3 order.
func DetailedWorkloads() []string { return slices.Clone(detailedNames) }

// OtherWorkloads returns the fourteen Figure 11 workload names.
func OtherWorkloads() []string { return slices.Clone(otherNames) }

// GeoMeanSpeedup runs pt on each workload in place of pt.Workload and
// returns the per-workload speedups plus their geometric mean.
func (r *Runner) GeoMeanSpeedup(ctx context.Context, workloads []string, pt Point) (map[string]float64, float64, error) {
	per := make(map[string]float64, len(workloads))
	var vals []float64
	for _, w := range workloads {
		pt.Workload = w
		s, err := r.Speedup(ctx, pt)
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
	// Points lists every runner point Render reads, baselines included,
	// and nothing else. It is nil for an experiment that reads none: the
	// analytic ones, and phase and table3, which build their own Systems.
	Points func() []Point
	// Render renders the table to w. Once Points is prefetched it reads
	// only the runner's memo. It must honor ctx: cancellation aborts any
	// simulation it runs between engine quanta.
	Render func(ctx context.Context, r *Runner, w io.Writer) error
}

// Run prefetches the experiment's points and renders its table.
func (e Experiment) Run(ctx context.Context, r *Runner, w io.Writer) error {
	if e.Points != nil {
		if err := r.Prefetch(ctx, e.Points()); err != nil {
			return err
		}
	}
	return e.Render(ctx, r, w)
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
