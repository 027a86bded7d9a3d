package validate

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"alloysim/internal/core"
	"alloysim/internal/experiments"
	"alloysim/internal/obs"
)

// tinyParams shrinks the sweep to test scale; CI runs the same sweep at
// experiments.QuickParams scale via cmd/alloycheck.
func tinyParams() experiments.Params {
	p := experiments.QuickParams()
	p.InstructionsPerCore = 30_000
	p.WarmupRefs = 3_000
	p.Cores = 4
	return p
}

func TestPropertySweepTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep simulates dozens of points")
	}
	rep, err := RunProperties(context.Background(), PropertyOptions{
		Params:    tinyParams(),
		Workloads: []string{"mcf_r", "omnetpp_r"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked == 0 {
		t.Fatal("sweep evaluated no checks")
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
}

func TestCheckResultInvariantsFlagsViolations(t *testing.T) {
	// A fabricated result violating several laws at once: NaN latency,
	// out-of-range rate, and predictor/read-count disagreement.
	res := core.Result{
		Workload:   "mcf_r",
		Design:     core.DesignAlloy,
		ExecCycles: math.NaN(),
		DCHitRate:  1.5,
		BelowReads: 10,
	}
	vs := CheckResultInvariants(res)
	found := map[string]bool{}
	for _, v := range vs {
		found[v.Property] = true
	}
	for _, want := range []string{"finite-stats", "rate-range", "conservation"} {
		if !found[want] {
			t.Errorf("fabricated result did not trip %s (got %v)", want, vs)
		}
	}
}

func TestCheckResultInvariantsAcceptsRealRun(t *testing.T) {
	p := tinyParams()
	cfg := PointConfig(p, "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range CheckResultInvariants(res) {
		t.Errorf("real run violates: %s", v)
	}
}

func TestCheckBreakdownAdditivityFlagsEmptyTracer(t *testing.T) {
	trc := obs.NewTracer(1, 16)
	vs := CheckBreakdownAdditivity(trc)
	if len(vs) != 1 {
		t.Fatalf("empty tracer produced %d violations, want 1", len(vs))
	}
}

func TestPointConfigMirrorsParams(t *testing.T) {
	p := tinyParams()
	cfg := PointConfig(p, "lbm_r", core.DesignLH, core.PredMissMap, 128)
	if cfg.Workload != "lbm_r" || cfg.Design != core.DesignLH || cfg.Predictor != core.PredMissMap {
		t.Fatalf("point identity not applied: %+v", cfg)
	}
	if cfg.Scale != p.Scale || cfg.Cores != p.Cores || cfg.InstructionsPerCore != p.InstructionsPerCore {
		t.Fatalf("params not applied: %+v", cfg)
	}
	if cfg.DRAMCacheBytes != 128<<20 {
		t.Fatalf("cacheMB not applied: %d", cfg.DRAMCacheBytes)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("derived config invalid: %v", err)
	}
}

// TestPointConfigFollowsRunnerCacheSize: a zero cache size takes
// Params.CacheMB, as the runner's normalize does, so PointConfig(…, 0)
// simulates the point Runner.Run(…, 0) does when Params.CacheMB is not
// core.DefaultConfig's 256.
func TestPointConfigFollowsRunnerCacheSize(t *testing.T) {
	p := experiments.QuickParams()
	p.InstructionsPerCore = 30_000
	p.CacheMB = 128
	cfg := PointConfig(p, "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if cfg.DRAMCacheBytes != 128<<20 {
		t.Fatalf("PointConfig builds %d MB, want 128", cfg.DRAMCacheBytes>>20)
	}
	got, err := experiments.NewRunner(p).Run(context.Background(), "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("runner %+v, PointConfig's config %+v", got, want)
	}
}

// TestGateTripFlightReproducesRun: the rerun that gives a tripped gate its
// flight recording reproduces the runner's result for the point exactly,
// here for a point whose warmup a Prefetch replayed from the baseline's
// recorded front, and its dump holds the run's final epochs.
func TestGateTripFlightReproducesRun(t *testing.T) {
	ctx := context.Background()
	p := experiments.QuickParams()
	p.InstructionsPerCore = 30_000
	r := experiments.NewRunner(p)
	pts := []experiments.Point{{Workload: "mcf_r", Design: core.DesignNone}, {Workload: "mcf_r", Design: core.DesignAlloy}}
	if err := r.Prefetch(ctx, pts); err != nil {
		t.Fatal(err)
	}
	want, err := r.Run(ctx, "mcf_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Metrics().WarmReplays; n != 1 {
		t.Fatalf("runner replayed %d warmups, want 1", n)
	}

	got, dump, err := flightRerun(ctx, p, experiments.Point{Workload: "mcf_r", Design: core.DesignAlloy})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rerun result differs from the runner's:\n%+v\nvs\n%+v", got, want)
	}
	var parsed struct {
		Columns []string   `json:"columns"`
		Rows    [][]uint64 `json:"rows"`
	}
	if err := json.Unmarshal([]byte(dump), &parsed); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%.200s", err, dump)
	}
	if len(parsed.Columns) < 2 || parsed.Columns[0] != "cycle" || len(parsed.Rows) == 0 {
		t.Fatalf("dump has %d columns and %d epoch rows: %.200s", len(parsed.Columns), len(parsed.Rows), dump)
	}
}
