package validate

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"alloysim/internal/core"
	"alloysim/internal/experiments"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
)

// Violation is one broken property: a check the paper's argument implies
// must hold, that a simulation run did not satisfy.
type Violation struct {
	Property string
	Detail   string
	// Telemetry is the violating point's phase time series as CSV (every
	// exported counter at every epoch) followed by its Chrome trace of
	// sampled request spans, the two files alloysim's -timeseries and
	// -trace write, taken by simulating the point again with both
	// attached. It answers "what was the simulator doing when the gate
	// tripped".
	Telemetry string
}

func (v Violation) String() string { return v.Property + ": " + v.Detail }

// PropertyReport summarizes a metamorphic sweep.
type PropertyReport struct {
	// Checked counts individual assertions evaluated.
	Checked int
	// Violations lists every failed assertion.
	Violations []Violation
}

func (r *PropertyReport) pass() { r.Checked++ }
func (r *PropertyReport) fail(prop, format string, args ...interface{}) {
	r.Checked++
	r.Violations = append(r.Violations, Violation{Property: prop, Detail: fmt.Sprintf(format, args...)})
}

// DefaultSlack bounds per-workload latency-ordering inversions. The
// orderings (perfect predictor over real ones, IDEAL-LO over Alloy over
// direct-mapped LH) are per-access truths, but end-to-end execution time
// has second-order dynamics the closed forms ignore: a predictor's
// mispredicted parallel probes keep off-chip rows open, acting as row
// warmers for later misses, so a strictly-worse-per-access configuration
// can finish a whole run faster. Measured at QuickParams scale across the
// ten detailed workloads, the worst inversion is 12.6% (libquantum under
// MAP-I, a streaming workload where wasted hit-probes prefetch entire
// rows). The slack passes those physical inversions while failing gross
// regressions; the geometric-mean checks across workloads stay strict.
const DefaultSlack = 1.15

// PropertyOptions configures a metamorphic sweep.
type PropertyOptions struct {
	// Params is the simulation scale (experiments.QuickParams in CI).
	Params experiments.Params
	// Workloads to sweep; defaults to {mcf_r, lbm_r}.
	Workloads []string
	// CacheMBs is the paper-scale size ladder for the hit-rate
	// monotonicity check; defaults to {64, 128, 256}.
	CacheMBs []uint64
	// Slack is the per-workload ordering tolerance (see DefaultSlack,
	// used when zero): an inversion ratio up to Slack is tolerated per
	// workload, while geomean ordering across workloads must hold exactly.
	Slack float64
}

// PointConfig derives the core.Config for one simulation point at the
// given scale through experiments.Params.Config, the runner's own
// derivation, so that direct core runs (determinism, tracing) simulate
// the same system the memoized sweep does.
func PointConfig(p experiments.Params, workload string, d core.Design, pk core.PredictorKind, cacheMB uint64) core.Config {
	return p.Config(experiments.Point{Workload: workload, Design: d, Predictor: pk, CacheMB: cacheMB})
}

// CheckResultInvariants applies the conservation laws that must hold for
// every completed run, whatever the configuration: counter conservation
// (every below-L3 read is predicted exactly once; off-chip reads decompose
// exactly into actual misses plus mispredicted parallel probes), and
// finiteness/range sanity on all derived statistics. The fuzzer applies
// the same checks to arbitrary configurations.
func CheckResultInvariants(res core.Result) []Violation {
	var out []Violation
	add := func(prop, format string, args ...interface{}) {
		out = append(out, Violation{Property: prop, Detail: fmt.Sprintf(format, args...)})
	}
	finite := []struct {
		name string
		v    float64
	}{
		{"ExecCycles", res.ExecCycles},
		{"HitLatency", res.HitLatency},
		{"MissLatency", res.MissLatency},
		{"HitLatencyP95", res.HitLatencyP95},
		{"MissLatencyP95", res.MissLatencyP95},
		{"ReadLatency", res.ReadLatency},
		{"MPKI", res.MPKI},
	}
	for _, f := range finite {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			add("finite-stats", "%s/%s: %s = %v", res.Workload, res.Design, f.name, f.v)
		}
	}
	rates := []struct {
		name string
		v    float64
	}{
		{"DCHitRate", res.DCHitRate},
		{"DCReadHitRate", res.DCReadHitRate},
		{"RowBufferHitRate", res.RowBufferHitRate},
		{"L3 hit rate", res.L3.HitRate()},
	}
	for _, f := range rates {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			add("rate-range", "%s/%s: %s = %v outside [0,1]", res.Workload, res.Design, f.name, f.v)
		}
	}
	a := res.Accuracy
	if res.Design == core.DesignNone {
		if a.Total() != 0 {
			add("conservation", "%s/none: baseline recorded %d predictions", res.Workload, a.Total())
		}
		if res.MemStats.Reads != res.BelowReads {
			add("conservation", "%s/none: %d off-chip reads != %d below-L3 reads", res.Workload, res.MemStats.Reads, res.BelowReads)
		}
	} else {
		if a.Total() != res.BelowReads {
			add("conservation", "%s/%s: %d predictions != %d below-L3 reads", res.Workload, res.Design, a.Total(), res.BelowReads)
		}
		if res.WastedMemReads != a.CachePredMem {
			add("conservation", "%s/%s: %d wasted probes != %d cache-hits-predicted-memory", res.Workload, res.Design, res.WastedMemReads, a.CachePredMem)
		}
		if want := a.MemPredMem + a.MemPredCache + a.CachePredMem; res.MemStats.Reads != want {
			add("conservation", "%s/%s: %d off-chip reads != %d (misses + wasted probes)", res.Workload, res.Design, res.MemStats.Reads, want)
		}
	}
	return out
}

// CheckBreakdownAdditivity verifies that every retained per-request
// breakdown decomposes exactly: predictor + cache + memory + other
// segments must sum to the end-to-end total, cycle for cycle.
func CheckBreakdownAdditivity(trc *obs.Tracer) []Violation {
	var out []Violation
	n := 0
	_ = trc.EachBreakdown(func(b *obs.Breakdown) error {
		n++
		sum := b.Pred + b.CacheQueue + b.CacheBank + b.CacheBus + b.CacheBurst +
			b.MemQueue + b.MemBank + b.MemBus + b.MemBurst + b.Other
		if sum != b.Total {
			out = append(out, Violation{
				Property: "breakdown-additivity",
				Detail:   fmt.Sprintf("req %d: components sum to %d, total %d", b.ReqID, sum, b.Total),
			})
		}
		return nil
	})
	if n == 0 {
		out = append(out, Violation{Property: "breakdown-additivity", Detail: "tracer retained no breakdowns"})
	}
	return out
}

// RunProperties executes the metamorphic sweep: small real simulations
// whose results must obey the orderings the paper implies, plus the
// universal conservation laws on every run. One Prefetch runs every point
// the checks read, in parallel and sharing each workload's warmup front,
// and the checks read the results from the memo, so the shared points
// (the Alloy default, the baseline) simulate once.
func RunProperties(ctx context.Context, opt PropertyOptions) (PropertyReport, error) {
	p := opt.Params
	workloads := opt.Workloads
	if len(workloads) == 0 {
		workloads = []string{"mcf_r", "lbm_r"}
	}
	sizes := opt.CacheMBs
	if len(sizes) == 0 {
		sizes = []uint64{64, 128, 256}
	}
	slack := opt.Slack
	if slack <= 0 {
		slack = DefaultSlack
	}
	runner := experiments.NewRunner(p)
	var rep PropertyReport

	// Per-workload ExecCycles ratios, accumulated for the strict
	// geometric-mean ordering checks.
	realPreds := []core.PredictorKind{core.PredSAM, core.PredPAM, core.PredMAPG, core.PredMAPI}
	perfectRatios := map[core.PredictorKind][]float64{}
	var idealAlloyRatios, alloyLHRatios []float64

	// The design zoo rides the same harness: each organization runs under
	// its default predictor pairing and must stay bounded by IDEAL-LO, and
	// TDRAM — Alloy minus the TAD burst tax and the serialized tag path —
	// must not lose to Alloy itself.
	zoo := []core.Design{core.DesignBanshee, core.DesignGemini, core.DesignTDRAM}
	idealZooRatios := map[core.Design][]float64{}
	var tdramAlloyRatios []float64

	// Every point the checks below read; one they read unlisted would
	// still run, warmed directly.
	var points []experiments.Point
	for _, w := range workloads {
		add := func(d core.Design, pk core.PredictorKind, mb uint64) {
			points = append(points, experiments.Point{Workload: w, Design: d, Predictor: pk, CacheMB: mb})
		}
		add(core.DesignNone, core.PredDefault, 0)
		for _, pk := range append([]core.PredictorKind{core.PredPerfect}, realPreds...) {
			add(core.DesignAlloy, pk, 0)
		}
		for _, d := range append([]core.Design{core.DesignIdealLO, core.DesignAlloy, core.DesignLH1}, zoo...) {
			add(d, core.PredDefault, 0)
		}
		for _, mb := range sizes {
			add(core.DesignAlloy, core.PredDefault, mb)
		}
	}
	if err := runner.Prefetch(ctx, points); err != nil {
		if ctx.Err() != nil {
			err = ctx.Err() // not one error per unstarted point
		}
		return rep, fmt.Errorf("validate: %w", err)
	}

	run := func(w string, d core.Design, pk core.PredictorKind, mb uint64) (core.Result, error) {
		res, err := runner.Run(ctx, w, d, pk, mb)
		if err != nil {
			return res, fmt.Errorf("validate: %s/%s/%s/%d: %w", w, d, pk, mb, err)
		}
		if vs := CheckResultInvariants(res); len(vs) > 0 {
			// A tripped gate gets the run's telemetry attached: the
			// epochs that produced the violating counters.
			pt := experiments.Point{Workload: w, Design: d, Predictor: pk, CacheMB: mb}
			_, dump, err := telemetryRerun(ctx, p, pt)
			if err != nil {
				return res, fmt.Errorf("validate: %s/%s/%s/%d: telemetry rerun: %w", w, d, pk, mb, err)
			}
			for i := range vs {
				vs[i].Telemetry = dump
			}
			rep.Violations = append(rep.Violations, vs...)
		}
		rep.Checked++
		return res, nil
	}

	for _, w := range workloads {
		// Baseline first: its conservation law (every below-L3 read is an
		// off-chip read) anchors the others.
		if _, err := run(w, core.DesignNone, core.PredDefault, 0); err != nil {
			return rep, err
		}

		// Predictor dominance: the zero-latency oracle should lose to no
		// real predictor — any real predictor either mispredicts (wasted
		// probes, serialized misses) or pays lookup latency on top. Held
		// per workload up to the slack, strictly in geomean (below).
		perfect, err := run(w, core.DesignAlloy, core.PredPerfect, 0)
		if err != nil {
			return rep, err
		}
		for _, pk := range realPreds {
			real, err := run(w, core.DesignAlloy, pk, 0)
			if err != nil {
				return rep, err
			}
			ratio := perfect.ExecCycles / real.ExecCycles
			perfectRatios[pk] = append(perfectRatios[pk], ratio)
			if ratio > slack {
				rep.fail("perfect-dominates", "%s: perfect predictor ran %.0f cycles, %s ran %.0f (ratio %.3f > slack %.2f)",
					w, perfect.ExecCycles, pk, real.ExecCycles, ratio, slack)
			} else {
				rep.pass()
			}
		}

		// Design ordering under default pairings: the idealized
		// latency-optimized cache bounds Alloy from above, and Alloy must
		// beat the direct-mapped LH variant it was designed to replace
		// (same mapping, but tag-serialized and MissMap-gated).
		ideal, err := run(w, core.DesignIdealLO, core.PredDefault, 0)
		if err != nil {
			return rep, err
		}
		alloy, err := run(w, core.DesignAlloy, core.PredDefault, 0)
		if err != nil {
			return rep, err
		}
		lh1, err := run(w, core.DesignLH1, core.PredDefault, 0)
		if err != nil {
			return rep, err
		}
		idealRatio := ideal.ExecCycles / alloy.ExecCycles
		idealAlloyRatios = append(idealAlloyRatios, idealRatio)
		if idealRatio > slack {
			rep.fail("design-ordering", "%s: IDEAL-LO (%.0f cycles) slower than Alloy (%.0f, ratio %.3f > slack %.2f)",
				w, ideal.ExecCycles, alloy.ExecCycles, idealRatio, slack)
		} else {
			rep.pass()
		}
		lhRatio := alloy.ExecCycles / lh1.ExecCycles
		alloyLHRatios = append(alloyLHRatios, lhRatio)
		if lhRatio > slack {
			rep.fail("design-ordering", "%s: Alloy (%.0f cycles) slower than direct-mapped LH (%.0f, ratio %.3f > slack %.2f)",
				w, alloy.ExecCycles, lh1.ExecCycles, lhRatio, slack)
		} else {
			rep.pass()
		}

		// Zoo bounding: no real organization beats the idealized
		// latency-optimized cache (per workload up to the slack, strictly
		// in geomean below).
		for _, d := range zoo {
			res, err := run(w, d, core.PredDefault, 0)
			if err != nil {
				return rep, err
			}
			ratio := ideal.ExecCycles / res.ExecCycles
			idealZooRatios[d] = append(idealZooRatios[d], ratio)
			if ratio > slack {
				rep.fail("design-ordering", "%s: IDEAL-LO (%.0f cycles) slower than %s (%.0f, ratio %.3f > slack %.2f)",
					w, ideal.ExecCycles, d, res.ExecCycles, ratio, slack)
			} else {
				rep.pass()
			}
			if d == core.DesignTDRAM {
				tr := res.ExecCycles / alloy.ExecCycles
				tdramAlloyRatios = append(tdramAlloyRatios, tr)
				if tr > slack {
					rep.fail("design-ordering", "%s: TDRAM (%.0f cycles) slower than Alloy (%.0f, ratio %.3f > slack %.2f)",
						w, res.ExecCycles, alloy.ExecCycles, tr, slack)
				} else {
					rep.pass()
				}
			}
		}

		// Hit-rate monotonicity: growing the cache may not lose hits.
		prev := core.Result{}
		for i, mb := range sizes {
			res, err := run(w, core.DesignAlloy, core.PredDefault, mb)
			if err != nil {
				return rep, err
			}
			if i > 0 {
				if res.DCReadHitRate < prev.DCReadHitRate {
					rep.fail("hitrate-monotone", "%s: %d MB read hit rate %.4f < %d MB's %.4f",
						w, mb, res.DCReadHitRate, sizes[i-1], prev.DCReadHitRate)
				} else {
					rep.pass()
				}
			}
			prev = res
		}
	}

	// The per-workload slack admits physical inversions (row-warming side
	// effects of wasted probes); in geometric mean across workloads the
	// paper's orderings must hold with no tolerance at all.
	geo := func(prop string, ratios []float64, detail string) {
		if g := stats.GeoMean(ratios); g > 1 {
			rep.fail(prop, "%s: geomean ratio %.4f > 1 over %v", detail, g, workloads)
		} else {
			rep.pass()
		}
	}
	for _, pk := range realPreds {
		geo("perfect-dominates-geomean", perfectRatios[pk], fmt.Sprintf("perfect vs %s", pk))
	}
	geo("design-ordering-geomean", idealAlloyRatios, "IDEAL-LO vs Alloy")
	geo("design-ordering-geomean", alloyLHRatios, "Alloy vs direct-mapped LH")
	for _, d := range zoo {
		geo("design-ordering-geomean", idealZooRatios[d], fmt.Sprintf("IDEAL-LO vs %s", d))
	}
	geo("design-ordering-geomean", tdramAlloyRatios, "TDRAM vs Alloy")

	// Seed determinism and breakdown additivity, per design: two fresh
	// systems from the identical config must produce identical results,
	// field for field (the memo can't help here: both runs must really
	// execute), and a fully-traced run's per-request segments must sum
	// exactly. The zoo organizations are the ones most likely to break
	// these — Gemini's steering tables are stateful across accesses, and
	// TDRAM's early tag resolution reshapes the charged segments.
	for _, d := range append([]core.Design{core.DesignAlloy}, zoo...) {
		cfg := PointConfig(p, workloads[0], d, core.PredDefault, 0)
		a, err := runFresh(ctx, cfg)
		if err != nil {
			return rep, err
		}
		b, err := runFresh(ctx, cfg)
		if err != nil {
			return rep, err
		}
		if a != b {
			rep.fail("determinism", "%s/%s: two runs of one config differ: %+v vs %+v", workloads[0], d, a, b)
		} else {
			rep.pass()
		}

		trc := obs.NewTracer(1, 1<<16)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return rep, err
		}
		sys.EnableObservability(nil, trc)
		if _, err := sys.RunContext(ctx); err != nil {
			return rep, err
		}
		if vs := CheckBreakdownAdditivity(trc); len(vs) > 0 {
			for i := range vs {
				vs[i].Detail = fmt.Sprintf("%s: %s", d, vs[i].Detail)
			}
			rep.Violations = append(rep.Violations, vs...)
		}
		rep.Checked++
	}

	return rep, nil
}

// telemetryRerun simulates pt again under p with a time series and a
// tracer (one read in 4096, the last 256 spans) attached, and returns the
// result and the dump: the series as CSV followed by the Chrome trace.
// The simulator is deterministic, so the rerun reproduces the runner's
// simulation of pt exactly and the dump shows that run; only a tripped
// gate pays for the second run.
func telemetryRerun(ctx context.Context, p experiments.Params, pt experiments.Point) (core.Result, string, error) {
	sys, err := core.NewSystem(p.Config(pt))
	if err != nil {
		return core.Result{}, "", err
	}
	ts, trc := obs.NewTimeSeries(0), obs.NewTracer(4096, 256)
	sys.EnableObservability(nil, trc)
	sys.EnableTimeSeries(ts)
	res, err := sys.RunContext(ctx)
	if err != nil {
		return core.Result{}, "", err
	}
	var sb strings.Builder
	ts.WriteCSV(&sb)          //nolint:errcheck // strings.Builder cannot fail
	trc.WriteChromeTrace(&sb) //nolint:errcheck // strings.Builder cannot fail
	return res, sb.String(), nil
}

func runFresh(ctx context.Context, cfg core.Config) (core.Result, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	return sys.RunContext(ctx)
}

// WriteReport renders a property report.
func WriteReport(w io.Writer, rep PropertyReport) error {
	if _, err := fmt.Fprintf(w, "properties: %d checks, %d violations\n", rep.Checked, len(rep.Violations)); err != nil {
		return err
	}
	for _, v := range rep.Violations {
		suffix := ""
		if v.Telemetry != "" {
			suffix = " [telemetry attached]"
		}
		if _, err := fmt.Fprintf(w, "  VIOLATION %s%s\n", v, suffix); err != nil {
			return err
		}
	}
	return nil
}

// WriteTelemetry renders the telemetry dump of each violation that
// carries one — the detail view behind WriteReport's attachment notes.
func WriteTelemetry(w io.Writer, rep PropertyReport) error {
	for _, v := range rep.Violations {
		if v.Telemetry == "" {
			continue
		}
		if _, err := fmt.Fprintf(w, "telemetry for %s:\n%s\n", v.Property, v.Telemetry); err != nil {
			return err
		}
	}
	return nil
}
