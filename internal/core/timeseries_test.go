package core

import (
	"reflect"
	"strings"
	"testing"

	"alloysim/internal/obs"
)

// runWithTelemetry runs cfg with a TimeSeries attached and returns the
// result plus the series.
func runWithTelemetry(t *testing.T, cfg Config) (Result, *obs.TimeSeries) {
	t.Helper()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := obs.NewTimeSeries(1 << 12)
	s.EnableTimeSeries(ts)
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r, ts
}

// TestTelemetryInert is TestObservabilityInert for the phase time
// series: a run with a TimeSeries attached must produce a Result
// identical in every field to a plain run.
func TestTelemetryInert(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	plain := runOne(t, cfg)
	instr, ts := runWithTelemetry(t, cfg)
	if !reflect.DeepEqual(plain, instr) {
		t.Fatalf("telemetry perturbed the simulation:\nplain %+v\ninstr %+v", plain, instr)
	}
	if ts.Len() < 2 {
		t.Fatalf("TimeSeries sampled %d epochs, want >= 2 (epoch 0 + drain)", ts.Len())
	}
}

// TestTimeSeriesReconcilesWithResult: the final epoch row snapshots the
// end-of-run counters, so its values must agree with the Result the same
// run returned.
func TestTimeSeriesReconcilesWithResult(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	res, ts := runWithTelemetry(t, cfg)
	last := ts.Len() - 1
	check := func(col string, want uint64) {
		t.Helper()
		i := ts.ColumnIndex(col)
		if i < 0 {
			t.Fatalf("column %s not registered", col)
		}
		if got := ts.Value(last, i); got != want {
			t.Errorf("%s final epoch = %d, Result says %d", col, got, want)
		}
	}
	check("below_reads_total", res.BelowReads)
	check("below_writes_total", res.BelowWrites)
	check("wasted_mem_reads_total", res.WastedMemReads)
	check("l3_hits_total", res.L3.Hits)
	check("l3_misses_total", res.L3.Misses)
	check("dram_offchip_reads_total", res.MemStats.Reads)
	check("dram_stacked_reads_total", res.StackedStats.Reads)
	check("predictor_cache_pred_mem_total", res.Accuracy.CachePredMem)
	check("predictor_mem_pred_mem_total", res.Accuracy.MemPredMem)

	// Monotonicity of counter columns across epochs.
	for _, col := range []string{"below_reads_total", "l3_misses_total", "dram_offchip_reads_total"} {
		i := ts.ColumnIndex(col)
		var prev uint64
		for r := 0; r < ts.Len(); r++ {
			v := ts.Value(r, i)
			if v < prev {
				t.Fatalf("%s not monotone at epoch %d: %d < %d", col, r, v, prev)
			}
			prev = v
		}
	}
	// Cycle column strictly increases.
	for r := 1; r < ts.Len(); r++ {
		if ts.Cycle(r) <= ts.Cycle(r-1) {
			t.Fatalf("cycle not increasing at epoch %d: %d <= %d", r, ts.Cycle(r), ts.Cycle(r-1))
		}
	}
}

// TestPerBankColumnsSumToReads: the stacked device's per-bank access
// columns partition its total read count.
func TestPerBankColumnsSumToReads(t *testing.T) {
	cfg := smallConfig("mcf_r", DesignAlloy)
	res, ts := runWithTelemetry(t, cfg)
	last := ts.Len() - 1
	var sum uint64
	n := 0
	for i, col := range ts.Columns() {
		if strings.HasPrefix(col, "dram_stacked_bank") && strings.HasSuffix(col, "_accesses_total") {
			sum += ts.Value(last, i)
			n++
		}
	}
	if n == 0 {
		t.Fatal("no per-bank columns registered")
	}
	if sum != res.StackedStats.Reads {
		t.Fatalf("per-bank accesses sum %d != stacked reads %d (over %d banks)", sum, res.StackedStats.Reads, n)
	}
}

// TestTimeSeriesDeterministic is the acceptance gate: the phase export is
// a pure function of the configuration, identical bytes across repeated
// runs.
func TestTimeSeriesDeterministic(t *testing.T) {
	cfg := DefaultConfig("mcf_r")
	cfg.Design = DesignAlloy
	cfg.InstructionsPerCore = 40_000
	cfg.WarmupRefs = 3_000
	cfg.GapScale = 2
	export := func() string {
		_, ts := runWithTelemetry(t, cfg)
		var sb strings.Builder
		if err := ts.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if export() != export() {
		t.Fatal("repeated runs exported different bytes")
	}
}
