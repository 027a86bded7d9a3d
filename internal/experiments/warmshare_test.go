package experiments

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
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

// checkMemoMatchesDirect requires every point's memoized result to equal
// a directly warmed simulation of it.
func checkMemoMatchesDirect(t *testing.T, r *Runner, pts []Point) {
	t.Helper()
	for _, pt := range pts {
		got, err := r.run(context.Background(), pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := directRun(t, r, pt); got != want {
			t.Errorf("%s: runner result %+v, direct %+v", pt, got, want)
		}
	}
}

// TestPrefetchSharesWarmFronts: one point at a time, the first point of
// each shared front records it and every later one replays it, and no
// result differs from a directly warmed run. Design, MLP and the other
// knobs that leave the front alone share the workload's front; the seed
// and the L3 policy give a point its own, which no other listed point
// shares, so it warms directly and nothing records it. MLP also leaves
// the tag store alone, so the MLP point copies the default point's
// warmed store.
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
		name                    string
		pts                     []Point
		fronts, replays, copies int
	}{
		{"designs", designs, 2, 6, 0},
		{"knobs", knobs, 1, 1, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := microParams()
			p.Parallelism = 1
			p.WarmupRefs = 5_000
			r := NewRunner(p)
			recorded := 0
			r.simulate = func(ctx context.Context, pt Point, plan *warmPlan) (core.Result, error) {
				if plan.front != nil {
					recorded++
				}
				return r.simulatePoint(ctx, pt, plan)
			}
			if err := r.Prefetch(context.Background(), c.pts); err != nil {
				t.Fatal(err)
			}
			if recorded != c.fronts {
				t.Errorf("runner recorded %d fronts, want %d", recorded, c.fronts)
			}
			if m := r.Metrics(); m.WarmReplays != uint64(c.replays) || m.WarmCopies != uint64(c.copies) {
				t.Errorf("%d warm replays and %d copies, want %d and %d", m.WarmReplays, m.WarmCopies, c.replays, c.copies)
			}
			checkMemoMatchesDirect(t, r, c.pts)
		})
	}
}

// TestPrefetchGroupsByFront lists two workloads' points interleaved, one
// at a time. Prefetch runs each workload's points together, records each
// front once, and IDEAL-LO copies the store Alloy warmed, once per
// workload; every result equals a directly warmed run.
func TestPrefetchGroupsByFront(t *testing.T) {
	p := microParams()
	p.Parallelism = 1
	r := NewRunner(p)
	var pts []Point
	for _, d := range []core.Design{core.DesignNone, core.DesignAlloy, core.DesignIdealLO} {
		for _, wl := range []string{"mcf_r", "lbm_r"} {
			pts = append(pts, Point{Workload: wl, Design: d})
		}
	}
	var ran []string
	recorded := 0
	r.simulate = func(ctx context.Context, pt Point, plan *warmPlan) (core.Result, error) {
		ran = append(ran, pt.Workload)
		if plan.front != nil {
			recorded++
		}
		return r.simulatePoint(ctx, pt, plan)
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(ran, " "), "mcf_r mcf_r mcf_r lbm_r lbm_r lbm_r"; got != want {
		t.Errorf("ran %s, want %s", got, want)
	}
	if m := r.Metrics(); recorded != 2 || m.WarmReplays != 4 || m.WarmCopies != 2 {
		t.Errorf("%d fronts recorded, %d replays and %d copies, want 2, 4 and 2", recorded, m.WarmReplays, m.WarmCopies)
	}
	checkMemoMatchesDirect(t, r, pts)
}

// TestPrefetchPastWarmCores runs a sweep at more cores than a warm
// record's header can name (core.WarmRecord names 8). Such points have no
// keys (core.Keys), so the sweep's table stays empty and every point gets
// the zero plan: all warm directly, in parallel, none fails, and every
// result equals a direct run.
func TestPrefetchPastWarmCores(t *testing.T) {
	p := microParams()
	p.Cores = 9
	p.Parallelism = 2
	r := NewRunner(p)
	var pts []Point
	for _, d := range []core.Design{core.DesignNone, core.DesignAlloy, core.DesignLH, core.DesignIdealLO} {
		pts = append(pts, Point{Workload: "mcf_r", Design: d})
	}
	s := r.newSweep(pts)
	if n := len(s.table); n != 0 {
		t.Errorf("the sweep's table holds %d entries, want none", n)
	}
	r.simulate = func(ctx context.Context, pt Point, plan *warmPlan) (core.Result, error) {
		if plan.replay != nil || plan.copy != nil || plan.front != nil || plan.contents != nil {
			t.Errorf("%s got a warm plan %+v, want the zero plan", pt, *plan)
		}
		return r.simulatePoint(ctx, pt, plan)
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if m := r.Metrics(); m.PointsRun != 4 || m.Failures != 0 || m.WarmReplays != 0 {
		t.Errorf("%d points run, %d failures and %d replays, want 4, 0 and 0", m.PointsRun, m.Failures, m.WarmReplays)
	}
	checkMemoMatchesDirect(t, r, pts)
}

// TestFrontCacheBounded runs five workloads' points on two workers and
// checks, whenever a point starts its simulation and after the sweep,
// that the sweep's table holds no ready record that no listed point not
// yet started needs. Each front is recorded once all the same: every
// point but a workload's first replays, and IDEAL-LO copies Alloy's
// store.
func TestFrontCacheBounded(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	check := func(s *sweep, when string) {
		s.mu.Lock()
		defer s.mu.Unlock()
		//alloyvet:allow(determinism) assertions are per-entry and order-independent
		for e := range s.table {
			if e.ready && e.needs == 0 {
				t.Errorf("%s the table holds a ready record no unstarted point needs", when)
			}
		}
	}
	var (
		mu   sync.Mutex
		last *sweep
	)
	r.simulate = func(ctx context.Context, pt Point, plan *warmPlan) (core.Result, error) {
		check(plan.s, "when "+pt.String()+" starts")
		mu.Lock()
		last = plan.s
		mu.Unlock()
		return r.simulatePoint(ctx, pt, plan)
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
	if m := r.Metrics(); m.WarmReplays != 15 || m.WarmCopies != 5 {
		t.Errorf("%d replays and %d copies, want 15 and 5", m.WarmReplays, m.WarmCopies)
	}
	last.mu.Lock()
	defer last.mu.Unlock()
	if n := len(last.table); n != 0 {
		t.Errorf("after the sweep its table holds %d entries", n)
	}
}

// TestTakeFrontLifecycle walks one shared front through its states under
// Prefetch: claimed by the first listed point, which records it, while
// the second waits on it; given up when the first returns without
// publishing, which wakes the waiter and passes the role to it; and
// dropped from the table once the last point that shares it has started
// and given it up.
func TestTakeFrontLifecycle(t *testing.T) {
	r := NewRunner(microParams())
	s := r.newSweep([]Point{{Workload: "lbm_r", Design: core.DesignNone}, {Workload: "lbm_r", Design: core.DesignAlloy}})
	s.mu.Lock()
	lp, _ := s.pickLocked()
	_, wait := s.pickLocked()
	s.mu.Unlock()
	if lp == nil || lp.key.Design != core.DesignNone || lp.plan.front == nil || wait == nil {
		t.Fatalf("first listed point %+v, wait %v; want the baseline claiming the front and the Alloy point waiting", lp, wait)
	}
	lp.plan.publish() // the baseline returned without publishing
	select {
	case <-wait:
	default:
		t.Fatal("giving the record up did not wake the waiting point")
	}
	s.mu.Lock()
	lp, wait = s.pickLocked()
	s.mu.Unlock()
	if lp == nil || lp.key.Design != core.DesignAlloy || lp.plan.front == nil {
		t.Fatalf("after the give-up picked %+v, wait %v; want the Alloy point claiming the front", lp, wait)
	}
	lp.plan.publish()
	s.mu.Lock()
	defer s.mu.Unlock()
	if lp, wait := s.pickLocked(); lp != nil || wait != nil {
		t.Fatalf("picked %+v, wait %v; want every point started", lp, wait)
	}
	if len(s.table) != 0 {
		t.Fatalf("after the sweep the table holds %d entries, want 0", len(s.table))
	}
	if m := r.Metrics(); m.WarmReplays != 0 {
		t.Fatalf("%d replays counted, want 0", m.WarmReplays)
	}
}

// TestPrefetchWarmsOncePerKey runs a list shaped like Figure 9's, one
// baseline per workload and then four designs at each size, plus the
// SRAM-Tag 1-way and IDEAL-LO NoTagOverhead pair, on two workers. Each
// workload's baseline records the front and every other point replays
// it; at each size IDEAL-LO copies the store Alloy warmed and
// ideal-lo-notag the one sram-1 warmed. The counts hold whatever the
// timing, and every result equals a directly warmed run.
func TestPrefetchWarmsOncePerKey(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	workloads, sizes := []string{"mcf_r", "lbm_r", "soplex_r"}, []uint64{64, 256, 1024}
	var pts []Point
	for _, wl := range workloads {
		pts = append(pts, Point{Workload: wl, Design: core.DesignNone})
		for _, mb := range sizes {
			for _, d := range []core.Design{core.DesignLH, core.DesignSRAMTag32, core.DesignAlloy, core.DesignIdealLO, core.DesignSRAMTag1, core.DesignIdealLONoTag} {
				pts = append(pts, Point{Workload: wl, Design: d, CacheMB: mb})
			}
		}
	}
	if err := r.Prefetch(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if want := uint64(len(pts) - len(workloads)); m.WarmReplays != want {
		t.Errorf("%d warm replays, want %d (every point but each front's recorder)", m.WarmReplays, want)
	}
	if want := uint64(2 * len(workloads) * len(sizes)); m.WarmCopies != want {
		t.Errorf("%d warm copies, want %d", m.WarmCopies, want)
	}
	checkMemoMatchesDirect(t, r, pts)
}

// TestPrefetchHandsRolesOn makes the points that record a front or take
// a snapshot fail during warmup, or cancels the sweep there. A failed
// producer hands its role to the next point in grouped order that wants
// it: no point waits forever, the other points match direct runs, and
// only the failed points are reported. A cancellation stops the sweep
// with no failure record and leaves nothing in flight in the table.
func TestPrefetchHandsRolesOn(t *testing.T) {
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignNone},
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "mcf_r", Design: core.DesignLH},
		{Workload: "mcf_r", Design: core.DesignIdealLO},
		{Workload: "mcf_r", Design: core.DesignTDRAM},
	}
	p := microParams()
	p.Parallelism = 2
	t.Run("failure", func(t *testing.T) {
		r := NewRunner(p)
		var mu sync.Mutex
		failing := map[core.Design]bool{core.DesignNone: true, core.DesignAlloy: true}
		var fronts, stores []core.Design // the points given each role, in turn
		r.simulate = func(ctx context.Context, pt Point, plan *warmPlan) (core.Result, error) {
			mu.Lock()
			fail := failing[pt.Design]
			if plan.front != nil {
				fronts = append(fronts, pt.Design)
			}
			if plan.contents != nil {
				stores = append(stores, pt.Design)
			}
			mu.Unlock()
			if fail {
				// The point's own context is done by the time it warms.
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				ctx = cctx
			}
			return r.simulatePoint(ctx, pt, plan)
		}
		err := r.Prefetch(context.Background(), pts)
		if err == nil {
			t.Fatal("Prefetch reported no failure")
		}
		for _, pt := range pts {
			if got, want := strings.Contains(err.Error(), pt.String()), failing[pt.Design]; got != want {
				t.Errorf("error mentions %s: %v, want %v: %v", pt, got, want, err)
			}
		}
		// Grouped by tag store, the list runs None, Alloy, IDEAL-LO,
		// TDRAM, LH-Cache. The baseline records the front and fails;
		// Alloy takes the front and the store and fails; IDEAL-LO then
		// records both, TDRAM copies the store and LH-Cache replays the
		// front.
		if m := r.Metrics(); m.Failures != 2 || m.WarmReplays != 2 || m.WarmCopies != 1 {
			t.Errorf("metrics %+v, want 2 failures, 2 replays and 1 copy", m)
		}
		wantFronts := []core.Design{core.DesignNone, core.DesignAlloy, core.DesignIdealLO}
		wantStores := []core.Design{core.DesignAlloy, core.DesignIdealLO}
		if !slices.Equal(fronts, wantFronts) || !slices.Equal(stores, wantStores) {
			t.Errorf("fronts recorded by %v and stores by %v, want %v and %v", fronts, stores, wantFronts, wantStores)
		}
		mu.Lock()
		failing = nil
		mu.Unlock()
		checkMemoMatchesDirect(t, r, pts)
	})
	t.Run("cancel", func(t *testing.T) {
		r := NewRunner(p)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var s *sweep
		r.simulate = func(sctx context.Context, pt Point, plan *warmPlan) (core.Result, error) {
			if pt.Design == core.DesignNone {
				s = plan.s
				cancel()
			}
			return r.simulatePoint(sctx, pt, plan)
		}
		if err := r.Prefetch(ctx, pts); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
		if recs := r.FailureRecords(); len(recs) != 0 {
			t.Fatalf("cancelled points left failure records: %+v", recs)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		//alloyvet:allow(determinism) assertions are per-entry and order-independent
		for e := range s.table {
			if e.done != nil {
				t.Fatal("after the cancel a record is still being made")
			}
		}
	})
}
