package experiments

import (
	"context"
	"fmt"
	"testing"

	"alloysim/internal/core"
)

// directRun simulates the point outside the runner, warmed directly.
func directRun(t *testing.T, r *Runner, pt Point) core.Result {
	t.Helper()
	sys, err := core.NewSystem(r.pointConfig(r.normalize(pt)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkMemoMatchesDirect requires every point's memoized result to equal
// a directly warmed simulation of it.
func checkMemoMatchesDirect(t *testing.T, r *Runner, pts []Point) {
	t.Helper()
	for _, pt := range pts {
		got, err := r.Run(context.Background(), pt.Workload, pt.Design, pt.Predictor, pt.CacheMB)
		if err != nil {
			t.Fatal(err)
		}
		if want := directRun(t, r, pt); got != want {
			t.Errorf("%s: runner result %+v, direct %+v", pt, got, want)
		}
	}
}

// TestPrefetchSharesWarmFronts: one point at a time, the first point of
// each workload records its front and every later one replays it, and
// no result differs from a directly warmed run.
func TestPrefetchSharesWarmFronts(t *testing.T) {
	p := microParams()
	p.Parallelism = 1
	p.WarmupRefs = 5_000
	r := NewRunner(p)
	built := map[*core.WarmRecord]bool{}
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		res, err := r.simulatePoint(ctx, pt)
		r.mu.Lock()
		for _, e := range r.fronts {
			built[e.rec] = true
		}
		r.mu.Unlock()
		return res, err
	}
	var pts []Point
	for _, wl := range []string{"mcf_r", "lbm_r"} {
		pts = append(pts, Point{Workload: wl, Design: core.DesignNone})
		for _, d := range []core.Design{core.DesignAlloy, core.DesignLH, core.DesignSRAMTag32} {
			pts = append(pts, Point{Workload: wl, Design: d})
		}
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if len(built) != 2 {
		t.Errorf("runner recorded %d fronts, want 2", len(built))
	}
	if m := r.Metrics(); m.WarmReplays != 6 {
		t.Errorf("%d warm replays, want 6", m.WarmReplays)
	}
	checkMemoMatchesDirect(t, r, pts)
}

// TestFrontCacheBounded runs more workloads than the runner may hold
// fronts for, and checks the bound after every point.
func TestFrontCacheBounded(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		res, err := r.simulatePoint(ctx, pt)
		r.mu.Lock()
		n := len(r.fronts)
		r.mu.Unlock()
		if n > p.Parallelism {
			t.Errorf("after %s the runner holds %d fronts, limit %d", pt, n, p.Parallelism)
		}
		return res, err
	}
	var pts []Point
	for _, wl := range DetailedWorkloads()[:5] {
		for _, d := range []core.Design{core.DesignNone, core.DesignAlloy, core.DesignLH, core.DesignIdealLO} {
			pts = append(pts, Point{Workload: wl, Design: d})
		}
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.WarmReplays == 0 {
		t.Error("no point replayed a recorded front")
	}
}

// TestTakeFrontLifecycle walks one entry through its states: recorded,
// joined while recording (direct warmup), dropped when the recording
// point fails before its record is complete, then recorded again; and a
// full cache of fronts being recorded admits no new one.
func TestTakeFrontLifecycle(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	rec, replay := r.takeFront("mcf_r")
	if rec == nil || replay {
		t.Fatalf("first lookup = (%v, %v), want a new record", rec, replay)
	}
	if got, replay := r.takeFront("mcf_r"); got != nil || replay {
		t.Fatal("a front being recorded was handed out")
	}
	r.publishFront(rec) // incomplete: the recorder failed during warmup
	if len(r.fronts) != 0 {
		t.Fatalf("incomplete record kept: %d entries", len(r.fronts))
	}
	a, _ := r.takeFront("mcf_r")
	b, _ := r.takeFront("lbm_r")
	if a == nil || b == nil {
		t.Fatal("free slots did not start new records")
	}
	if c, _ := r.takeFront("gcc_r"); c != nil {
		t.Fatal("a third record started while two are being recorded")
	}
	if m := r.Metrics(); m.WarmReplays != 0 {
		t.Fatalf("%d replays counted, want 0", m.WarmReplays)
	}
}

// TestFrontCacheEvictsLeastRecentlyUsed fills the cache with complete
// records and checks which one a new workload displaces.
func TestFrontCacheEvictsLeastRecentlyUsed(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	p.WarmupRefs = 10
	r := NewRunner(p)
	record := func(wl string) {
		t.Helper()
		pt := Point{Workload: wl, Design: core.DesignAlloy}
		if _, err := r.simulatePoint(context.Background(), pt); err != nil {
			t.Fatal(err)
		}
	}
	record("mcf_r")
	record("lbm_r")
	record("mcf_r") // a replay: mcf_r becomes the most recently used
	record("gcc_r") // displaces lbm_r
	var got []string
	for _, e := range r.fronts {
		got = append(got, fmt.Sprintf("%s:%v", e.workload, e.ready))
	}
	if want := "[mcf_r:true gcc_r:true]"; fmt.Sprint(got) != want {
		t.Fatalf("fronts %v, want %s", got, want)
	}
	if m := r.Metrics(); m.WarmReplays != 1 {
		t.Fatalf("%d replays, want 1", m.WarmReplays)
	}
}
