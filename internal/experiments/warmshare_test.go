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
	return runConfig(t, r.p.Config(r.normalize(pt)))
}

// runConfig simulates one config directly.
func runConfig(t *testing.T, cfg core.Config) core.Result {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// frontKey returns the warmup front key of the point's system.
func frontKey(t *testing.T, r *Runner, pt Point) core.FrontKey {
	t.Helper()
	sys, err := core.NewSystem(r.p.Config(r.normalize(pt)))
	if err != nil {
		t.Fatal(err)
	}
	k, err := sys.FrontKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// checkMemoMatchesDirect requires every point's memoized result to equal
// a directly warmed simulation of it.
func checkMemoMatchesDirect(t *testing.T, r *Runner, pts []Point) {
	t.Helper()
	for _, pt := range pts {
		got, err := r.run(context.Background(), pt)
		if err != nil {
			t.Fatal(err)
		}
		if want := directRun(t, r, pt); got != want {
			t.Errorf("%s: runner result %+v, direct %+v", pt, got, want)
		}
	}
}

// TestPrefetchSharesWarmFronts: one point at a time, with room for one
// front, the first point of each front records it and every later one
// replays it, and no result differs from a directly warmed run. Design,
// MLP and the other knobs that leave the front alone share the
// workload's front; the seed and the L3 policy give a point its own.
func TestPrefetchSharesWarmFronts(t *testing.T) {
	var designs []Point
	for _, wl := range []string{"mcf_r", "lbm_r"} {
		designs = append(designs, Point{Workload: wl, Design: core.DesignNone})
		for _, d := range []core.Design{core.DesignAlloy, core.DesignLH, core.DesignSRAMTag32} {
			designs = append(designs, Point{Workload: wl, Design: d})
		}
	}
	knobs := []Point{
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "mcf_r", Design: core.DesignAlloy, Knobs: Knobs{MLP: 4}},
		{Workload: "mcf_r", Design: core.DesignAlloy, Knobs: Knobs{L3Policy: "lru"}},
		{Workload: "mcf_r", Design: core.DesignAlloy, Knobs: Knobs{Seed: 2}},
	}
	for _, c := range []struct {
		name            string
		pts             []Point
		fronts, replays int
	}{
		{"designs", designs, 2, 6},
		{"knobs", knobs, 3, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
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
			if err := r.Prefetch(context.Background(), c.pts); err != nil {
				t.Fatal(err)
			}
			if len(built) != c.fronts {
				t.Errorf("runner recorded %d fronts, want %d", len(built), c.fronts)
			}
			if m := r.Metrics(); m.WarmReplays != uint64(c.replays) {
				t.Errorf("%d warm replays, want %d", m.WarmReplays, c.replays)
			}
			checkMemoMatchesDirect(t, r, c.pts)
		})
	}
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
	key := func(wl string) core.FrontKey { return frontKey(t, r, Point{Workload: wl, Design: core.DesignAlloy}) }
	rec, replay := r.takeFront(key("mcf_r"))
	if rec == nil || replay {
		t.Fatalf("first lookup = (%v, %v), want a new record", rec, replay)
	}
	if got, replay := r.takeFront(key("mcf_r")); got != nil || replay {
		t.Fatal("a front being recorded was handed out")
	}
	r.publishFront(rec) // incomplete: the recorder failed during warmup
	if len(r.fronts) != 0 {
		t.Fatalf("incomplete record kept: %d entries", len(r.fronts))
	}
	a, _ := r.takeFront(key("mcf_r"))
	b, _ := r.takeFront(key("lbm_r"))
	if a == nil || b == nil {
		t.Fatal("free slots did not start new records")
	}
	if c, _ := r.takeFront(key("gcc_r")); c != nil {
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
		for _, wl := range []string{"mcf_r", "lbm_r", "gcc_r"} {
			if e.key == frontKey(t, r, Point{Workload: wl, Design: core.DesignAlloy}) {
				got = append(got, fmt.Sprintf("%s:%v", wl, e.ready))
			}
		}
	}
	if want := "[mcf_r:true gcc_r:true]"; fmt.Sprint(got) != want {
		t.Fatalf("fronts %v, want %s", got, want)
	}
	if m := r.Metrics(); m.WarmReplays != 1 {
		t.Fatalf("%d replays, want 1", m.WarmReplays)
	}
}
