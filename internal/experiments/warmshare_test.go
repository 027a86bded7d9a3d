package experiments

import (
	"context"
	"errors"
	"fmt"
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
// workload's front; the seed and the L3 policy give a point its own. MLP
// also leaves the tag store alone, so the MLP point copies the default
// point's warmed store.
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
		{"knobs", knobs, 3, 1, 1},
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
					if e.ready {
						built[e.rec] = true
					}
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
			if m := r.Metrics(); m.WarmReplays != uint64(c.replays) || m.WarmCopies != uint64(c.copies) {
				t.Errorf("%d warm replays and %d copies, want %d and %d", m.WarmReplays, m.WarmCopies, c.replays, c.copies)
			}
			checkMemoMatchesDirect(t, r, c.pts)
		})
	}
}

// TestFrontCacheBounded runs more workloads than the runner may keep
// fronts for that no listed point needs, and checks after every point
// that the ready records beyond the bound are all still needed. Each
// front is recorded once all the same: every point but a workload's
// first replays, and IDEAL-LO copies Alloy's store.
func TestFrontCacheBounded(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
		res, err := r.simulatePoint(ctx, pt)
		r.mu.Lock()
		ready, needed := 0, 0
		for _, e := range r.fronts {
			if e.ready {
				ready++
				if e.needs > 0 {
					needed++
				}
			}
		}
		r.mu.Unlock()
		if ready > p.Parallelism+needed {
			t.Errorf("after %s the runner holds %d ready fronts, %d of them needed, limit %d plus the needed", pt, ready, needed, p.Parallelism)
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
	if m := r.Metrics(); m.WarmReplays != 15 || m.WarmCopies != 5 {
		t.Errorf("%d replays and %d copies, want 15 and 5", m.WarmReplays, m.WarmCopies)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.fronts) > p.Parallelism || len(r.contents) != 0 || len(r.plans) != 0 {
		t.Errorf("after the sweep the runner holds %d fronts, %d snapshots and %d plans", len(r.fronts), len(r.contents), len(r.plans))
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

// TestTakeFrontLifecycle walks one front entry through its states for
// points run outside Prefetch: claimed by the first point, which records
// it; waited on by a second point while it is recorded; given up when the
// recorder fails before its record is complete, which wakes the waiter
// and drops the entry; claimed afresh and published, after which it
// replays. Under Prefetch, a listed point's need keeps a given-up entry
// in the table, and the next listed point takes the role.
func TestTakeFrontLifecycle(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	pt := r.normalize(Point{Workload: "mcf_r", Design: core.DesignAlloy})
	key := frontKey(t, r, pt)
	plan := func() (warmPlan, chan struct{}) {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.planLocked(pt, key, core.ContentsKey{})
	}
	first, wait := plan()
	if first.front == nil || wait != nil {
		t.Fatalf("first plan = %+v, %v; want a claim to record", first, wait)
	}
	second, wait := plan()
	if wait == nil {
		t.Fatalf("a front being recorded was handed out: %+v", second)
	}
	r.publish(first) // incomplete: the recorder failed during warmup
	select {
	case <-wait:
	default:
		t.Fatal("giving the record up did not wake the waiting point")
	}
	if len(r.fronts) != 0 {
		t.Fatalf("given-up record kept: %d entries", len(r.fronts))
	}
	again, wait := plan()
	if again.front == nil || wait != nil {
		t.Fatalf("plan after the give-up = %+v, %v; want a claim to record", again, wait)
	}
	sys, err := core.NewSystem(r.p.Config(pt))
	if err == nil {
		err = sys.RecordWarmup(again.front.rec)
	}
	if err == nil {
		err = sys.Warm(context.Background())
	}
	if err != nil {
		t.Fatal(err)
	}
	r.publish(again)
	if replay, wait := plan(); replay.replay != again.front.rec || wait != nil {
		t.Fatalf("plan after publishing = %+v, %v; want the published record to replay", replay, wait)
	}

	l := r.list([]Point{{Workload: "lbm_r", Design: core.DesignNone}, {Workload: "lbm_r", Design: core.DesignAlloy}})
	r.mu.Lock()
	lp, _ := r.pickLocked(l)
	_, wait = r.pickLocked(l)
	r.mu.Unlock()
	if lp == nil || lp.key.Design != core.DesignNone || r.plans[lp.key].front == nil || wait == nil {
		t.Fatalf("first listed point %+v, wait %v; want the baseline claiming the front and the Alloy point waiting", lp, wait)
	}
	r.dropPlan(lp.key) // the baseline returned without publishing
	r.mu.Lock()
	lp, wait = r.pickLocked(l)
	r.mu.Unlock()
	if lp == nil || lp.key.Design != core.DesignAlloy || r.plans[lp.key].front == nil {
		t.Fatalf("after the give-up picked %+v, wait %v; want the Alloy point claiming the front", lp, wait)
	}
	r.dropPlan(lp.key)
	if skipped := r.unlist(l); len(skipped) != 0 {
		t.Fatalf("%d points skipped, want 0", len(skipped))
	}
	if len(r.fronts) != 1 || len(r.plans) != 0 {
		t.Fatalf("after the sweep the table holds %d fronts and %d plans, want 1 and 0", len(r.fronts), len(r.plans))
	}
	if m := r.Metrics(); m.WarmReplays != 1 {
		t.Fatalf("%d replays counted, want 1", m.WarmReplays)
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
	r.mu.Lock()
	if len(r.contents) != 0 || len(r.plans) != 0 {
		t.Errorf("after the sweep the runner holds %d snapshots and %d plans", len(r.contents), len(r.plans))
	}
	r.mu.Unlock()
	checkMemoMatchesDirect(t, r, pts)
}

// TestPrefetchHandsRolesOn makes the points that record a front or take
// a snapshot fail during warmup, or cancels the sweep there. A failed
// producer hands its role to the next listed point that wants it: no
// point waits forever, the other points match direct runs, and only the
// failed points are reported. A cancellation stops the sweep with no
// failure record and leaves nothing in flight in the table.
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
		r.simulate = func(ctx context.Context, pt Point) (core.Result, error) {
			mu.Lock()
			fail := failing[pt.Design]
			mu.Unlock()
			if fail {
				// The point's own context is done by the time it warms.
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				ctx = cctx
			}
			return r.simulatePoint(ctx, pt)
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
		// LH-Cache records the front once both producers failed; IDEAL-LO
		// replays it and takes the snapshot, which TDRAM copies.
		if m := r.Metrics(); m.Failures != 2 || m.WarmReplays != 2 || m.WarmCopies != 1 {
			t.Errorf("metrics %+v, want 2 failures, 2 replays and 1 copy", m)
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
		r.simulate = func(sctx context.Context, pt Point) (core.Result, error) {
			if pt.Design == core.DesignNone {
				cancel()
			}
			return r.simulatePoint(sctx, pt)
		}
		if err := r.Prefetch(ctx, pts); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
		if recs := r.FailureRecords(); len(recs) != 0 {
			t.Fatalf("cancelled points left failure records: %+v", recs)
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if len(r.fronts) != 0 || len(r.contents) != 0 || len(r.plans) != 0 {
			t.Fatalf("after the cancel the runner holds %d fronts, %d snapshots and %d plans", len(r.fronts), len(r.contents), len(r.plans))
		}
	})
}

// TestRunAndPrefetchShareFronts runs one point of a front outside
// Prefetch while Prefetch runs three more of it. Whichever side claims
// the front first records it and the other waits and replays it, so the
// four points record it once, IDEAL-LO copies Alloy's store, and every
// result matches a direct run.
func TestRunAndPrefetchShareFronts(t *testing.T) {
	p := microParams()
	p.Parallelism = 2
	r := NewRunner(p)
	pts := []Point{
		{Workload: "mcf_r", Design: core.DesignAlloy},
		{Workload: "mcf_r", Design: core.DesignLH},
		{Workload: "mcf_r", Design: core.DesignIdealLO},
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := r.Run(context.Background(), "mcf_r", core.DesignNone, core.PredDefault, 0); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := r.Prefetch(context.Background(), pts); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	if m := r.Metrics(); m.PointsRun != 4 || m.WarmReplays != 3 || m.WarmCopies != 1 {
		t.Fatalf("metrics %+v, want 4 points run, 3 replays and 1 copy", m)
	}
	checkMemoMatchesDirect(t, r, append(pts, Point{Workload: "mcf_r", Design: core.DesignNone}))
}
