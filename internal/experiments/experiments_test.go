package experiments

import (
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"testing"

	"alloysim/internal/core"
)

// tinyParams keeps experiment tests fast.
func tinyParams() Params {
	p := QuickParams()
	p.InstructionsPerCore = 60_000
	p.WarmupRefs = 3_000
	return p
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig3", "fig4", "fig6", "fig8", "fig9", "fig10", "fig11",
		"table1", "table3", "table4", "table5", "table6", "table7",
		"sec27", "sec56", "sec65", "sec67",
		"abl-mlp", "abl-wbuf", "abl-chan", "abl-l3pol", "abl-seeds", "table4sim",
		"phase",
		"beyond4", "beyond9", "beyond-pol",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i].ID < all[i-1].ID {
			t.Fatal("All() not sorted by ID")
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found nonexistent experiment")
	}
}

func TestRunnerMemoization(t *testing.T) {
	r := NewRunner(tinyParams())
	a, err := r.Run(context.Background(), "sphinx_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), "sphinx_r", core.DesignAlloy, core.PredDefault, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecCycles != b.ExecCycles {
		t.Fatal("memoized result differs")
	}
	if len(r.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(r.cache))
	}
}

func TestBaselineSharedAcrossSizes(t *testing.T) {
	r := NewRunner(tinyParams())
	if _, err := r.Speedup(context.Background(), Point{Workload: "sphinx_r", Design: core.DesignAlloy, CacheMB: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Speedup(context.Background(), Point{Workload: "sphinx_r", Design: core.DesignAlloy, CacheMB: 256}); err != nil {
		t.Fatal(err)
	}
	// 2 design runs + 1 shared baseline.
	if len(r.cache) != 3 {
		t.Fatalf("cache has %d entries, want 3", len(r.cache))
	}
}

func TestWorkloadLists(t *testing.T) {
	if len(DetailedWorkloads()) != 10 {
		t.Fatalf("detailed workloads: %d, want 10", len(DetailedWorkloads()))
	}
	if len(OtherWorkloads()) != 14 {
		t.Fatalf("other workloads: %d, want 14", len(OtherWorkloads()))
	}
}

func TestAnalyticExperimentsRender(t *testing.T) {
	r := NewRunner(tinyParams())
	for _, id := range []string{"fig1", "fig3", "table4"} {
		e, _ := ByID(id)
		var buf bytes.Buffer
		if err := e.Run(context.Background(), r, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", id)
		}
	}
}

func TestFig3OutputContainsPaperNumbers(t *testing.T) {
	e, _ := ByID("fig3")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), NewRunner(tinyParams()), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"88", "64", "23", "41", "22", "40"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing latency %s:\n%s", want, out)
		}
	}
}

func TestTable4OutputMatchesPaper(t *testing.T) {
	e, _ := ByID("table4")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), NewRunner(tinyParams()), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"6.4x", "8.0x", "1.9x", "80 byte", "272 byte"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 output missing %q:\n%s", want, out)
		}
	}
}

// TestSimExperimentSmoke runs one representative simulation experiment
// end-to-end at tiny scale.
func TestSimExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment in -short mode")
	}
	r := NewRunner(tinyParams())
	e, _ := ByID("table1")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"LH-Cache", "SRAM-Tag (32-way)", "Alloy (1-way)", "IDEAL-LO"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing row %q:\n%s", want, out)
		}
	}
}

func TestSec67Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment in -short mode")
	}
	r := NewRunner(tinyParams())
	e, _ := ByID("sec67")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), r, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Alloy (2-way)") {
		t.Fatalf("sec67 output missing 2-way row:\n%s", buf.String())
	}
}

func TestGeoMeanSpeedup(t *testing.T) {
	r := NewRunner(tinyParams())
	per, gm, err := r.GeoMeanSpeedup(context.Background(), []string{"sphinx_r", "gcc_r"}, Point{Design: core.DesignAlloy})
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 || gm <= 0 {
		t.Fatalf("per=%v gm=%v", per, gm)
	}
}

// TestRenderReadsOnlyDeclaredPoints holds every experiment's Points to
// what its Render reads, with a stand-in simulation that returns a fixed
// result. After a Prefetch of Points, Render simulates nothing; on a
// fresh runner, Render simulates every point Points lists.
func TestRenderReadsOnlyDeclaredPoints(t *testing.T) {
	ctx := context.Background()
	// render renders e, after prefetching its points when prefetch is
	// set, and returns the points prefetched and those Render simulated.
	render := func(t *testing.T, e Experiment, prefetch bool) (listed, read map[Point]bool) {
		r := NewRunner(microParams())
		var mu sync.Mutex
		ran := map[Point]bool{}
		r.simulate = func(ctx context.Context, pt Point, _ *warmPlan) (core.Result, error) {
			mu.Lock()
			ran[pt] = true
			mu.Unlock()
			return core.Result{ExecCycles: 1000, Instructions: 1000}, nil
		}
		if prefetch && e.Points != nil {
			if err := r.Prefetch(ctx, e.Points()); err != nil {
				t.Fatal(err)
			}
		}
		listed, ran = ran, map[Point]bool{}
		if err := e.Render(ctx, r, io.Discard); err != nil {
			t.Fatal(err)
		}
		return listed, ran
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			listed, read := render(t, e, true)
			//alloyvet:allow(determinism) assertions are per-point and order-independent
			for pt := range read {
				t.Errorf("Render simulated %s, which Points does not list", pt)
			}
			if e.Points == nil {
				return
			}
			_, read = render(t, e, false)
			//alloyvet:allow(determinism) assertions are per-point and order-independent
			for pt := range listed {
				if !read[pt] {
					t.Errorf("Points lists %s, which Render does not read", pt)
				}
			}
		})
	}
}
