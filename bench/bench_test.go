package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"alloysim/internal/obs"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := runChild(spec); err != nil {
			fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tiny shrinks every workload to a budget that runs in well under a second.
func tiny(t *testing.T, golden string) options {
	return options{
		seed: 1, seconds: 0, golden: golden, work: t.TempDir(), benchTime: "1x",
		instr: 20_000, sweepInstr: 5_000, sweepWarmup: 1_000,
	}
}

// tinyGolden writes the tiny sweep's own output as its golden file, plus a
// copy with one byte changed, and returns both paths.
func tinyGolden(t *testing.T) (good, corrupt string) {
	t.Helper()
	w, _ := workloadByName("fig9-sweep")
	s, _ := runOnce(w, tiny(t, "").job(w), nil)
	if len(s.Failed) > 0 {
		t.Fatalf("tiny sweep failed: %v", s.Failed)
	}
	dir := t.TempDir()
	good, corrupt = filepath.Join(dir, "fig9.txt"), filepath.Join(dir, "fig9-corrupt.txt")
	bad := []byte(s.Output)
	bad[len(bad)-2] ^= 1
	if err := os.WriteFile(good, []byte(s.Output), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	return good, corrupt
}

// benchmarkFile is the part of ../BENCHMARK.json this package must match.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatches checks that BENCHMARK.json describes exactly the
// workloads and metrics this package measures.
func TestBenchmarkFileMatches(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, package has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].Name || w.Why != workloads[i].Why) {
			t.Errorf("workload %d: BENCHMARK.json has %q, package has %q", i, w, workloads[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, package has %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		if i < len(endToEndMetrics) && endToEndMetric(m) != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %v, package has %v", i, m, endToEndMetrics[i])
		}
	}
	lms := layerMetrics()
	if len(bf.PerLayer) != len(lms) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, package has %d", len(bf.PerLayer), len(lms))
	}
	for i, m := range bf.PerLayer {
		if i < len(lms) && layerMetric(m) != lms[i] {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %v, package has %v", i, m, lms[i])
		}
	}
}

// TestSuiteSmoke runs every workload once at a tiny budget and checks the
// summary: every metric emitted with its unit, no failed check, and layer
// self times that partition the profile.
func TestSuiteSmoke(t *testing.T) {
	good, _ := tinyGolden(t)
	sum, err := suite(workloads, tiny(t, good), 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		ws := sum.Workloads[w.Name]
		if ws == nil {
			t.Fatalf("%s: missing from the summary", w.Name)
		}
		if ws.FailedFrac != 0 || ws.Attempted == 0 {
			t.Errorf("%s: failed_frac %v over %d checks", w.Name, ws.FailedFrac, ws.Attempted)
		}
		for _, m := range bf.EndToEnd {
			st, ok := ws.Metrics[m.Name]
			if !ok || st.Unit != m.Unit || st.N == 0 || !(st.Median > 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w.Name, m.Name, st, m.Unit)
			}
		}
		var self float64
		for _, m := range bf.PerLayer {
			v, ok := ws.Layers[m.Name]
			if !ok || math.IsNaN(v) {
				t.Errorf("%s: per-layer %s missing", w.Name, m.Name)
			}
			if strings.HasSuffix(m.Name, ".self_frac") {
				self += v
			}
		}
		if math.Abs(self-1) > 0.01 {
			t.Errorf("%s: self_frac values sum to %v, want 1", w.Name, self)
		}
	}
	if len(sum.Spans) == 0 || sum.Env.GoVersion == "" {
		t.Errorf("summary lacks spans or the environment stamp")
	}
}

// TestTracedResultMatchesUntraced checks that attaching the registry and
// the profiler leaves the simulated Result unchanged.
func TestTracedResultMatchesUntraced(t *testing.T) {
	o := tiny(t, "")
	w := workloads[0]
	plain, _, err := spawn(o.job(w))
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := spawn(o.tracedJob(w))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range traced.Samples {
		if s.Output != plain.Samples[0].Output {
			t.Errorf("traced Result differs:\n%s\n%s", plain.Samples[0].Output, s.Output)
		}
	}
}

func TestCorruptGoldenFails(t *testing.T) {
	_, corrupt := tinyGolden(t)
	w, _ := workloadByName("fig9-sweep")
	tl := newTally(w, tiny(t, corrupt), &spanLog{})
	if _, _, err := tl.repeat(); err != nil {
		t.Fatal(err)
	}
	if tl.failedFrac() <= 0 {
		t.Errorf("a corrupted golden file passed: failed_frac %v", tl.failedFrac())
	}
}

func TestMissingCounterFails(t *testing.T) {
	tr := &traceOut{}
	err := tr.read(workloads[0], tiny(t, "").job(workloads[0]), obs.NewRegistry(), ranInfo{})
	if err == nil || !strings.Contains(err.Error(), "registry has no metric") {
		t.Errorf("reading an empty registry: err = %v, want a missing-metric error", err)
	}
}

// TestQuartiles pins summarize to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // exclusive quartiles extrapolate
		{[]float64{7}, 7, 7, 7},
	} {
		st := summarize(c.in, "s")
		if st.Q1 != c.q1 || st.Median != c.m || st.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %v %v %v, want %v %v %v", c.in, st.Q1, st.Median, st.Q3, c.q1, c.m, c.q3)
		}
	}
}
