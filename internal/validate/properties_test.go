package validate

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"math"
	"reflect"
	"strings"
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
// telemetry reproduces the runner's result for the point exactly, here
// for a point whose warmup a Prefetch replayed from the baseline's
// recorded front, and its dump is the run's time series as CSV followed
// by its Chrome trace.
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

	got, dump, err := telemetryRerun(ctx, p, experiments.Point{Workload: "mcf_r", Design: core.DesignAlloy})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rerun result differs from the runner's:\n%+v\nvs\n%+v", got, want)
	}
	series, trace, ok := strings.Cut(dump, "{")
	if !ok {
		t.Fatalf("dump holds no trace: %.200s", dump)
	}
	rows, err := csv.NewReader(strings.NewReader(series)).ReadAll()
	if err != nil {
		t.Fatalf("series is not valid CSV: %v\n%.200s", err, series)
	}
	if len(rows) < 2 || len(rows[0]) < 3 || rows[0][0] != "epoch" || rows[0][1] != "cycle" {
		t.Fatalf("series has %d rows: %.200s", len(rows), series)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte("{"+trace), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%.200s", err, trace)
	}
	if len(parsed.TraceEvents) == 0 || parsed.TraceEvents[0].Ph != "X" {
		t.Fatalf("trace holds no spans: %.200s", trace)
	}
}

// TestWriteReportMarksAttachedTelemetry renders a report whose first
// violation carries telemetry and whose second does not: only the first
// report line ends with the attachment note, and the dump writer prints
// only the first violation's dump, headed by its property.
func TestWriteReportMarksAttachedTelemetry(t *testing.T) {
	rep := PropertyReport{Checked: 7, Violations: []Violation{
		{Property: "conservation", Detail: "reads 3 != 4", Telemetry: "epoch,cycle\n0,0\n"},
		{Property: "monotone", Detail: "hit rate fell"},
	}}
	var report strings.Builder
	if err := WriteReport(&report, rep); err != nil {
		t.Fatal(err)
	}
	const wantReport = "properties: 7 checks, 2 violations\n" +
		"  VIOLATION conservation: reads 3 != 4 [telemetry attached]\n" +
		"  VIOLATION monotone: hit rate fell\n"
	if got := report.String(); got != wantReport {
		t.Fatalf("report:\n%s\nwant:\n%s", got, wantReport)
	}
	var dumps strings.Builder
	if err := WriteTelemetry(&dumps, rep); err != nil {
		t.Fatal(err)
	}
	const wantDumps = "telemetry for conservation:\nepoch,cycle\n0,0\n\n"
	if got := dumps.String(); got != wantDumps {
		t.Fatalf("dumps:\n%q\nwant:\n%q", got, wantDumps)
	}
}
