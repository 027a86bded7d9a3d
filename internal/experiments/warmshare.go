package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"alloysim/internal/cache"
	"alloysim/internal/core"
)

// Warm sharing: a point's warmup inputs are known before it runs. Its
// front key (core.Keys) names the generators, private L2s and L3 every
// warmup reference streams through; its contents key adds the DRAM-cache
// tag store, for the designs whose warmup touches nothing else. The
// runner keeps one table entry per key: wanted by listed points, being
// made by one point, or ready. Prefetch starts a point only when the
// entries it can reuse are ready, or when no one is making them and the
// point will; one point of each front records it and the others replay
// it, and one point of each shared contents key snapshots its warmed
// store and the others copy it. A point publishes what it made when its
// warmup ends, not when its measured phase ends, and a point that returns
// without publishing gives its role up to the next point that wants it.

// frontEntry is one warmup front in the runner's table. While a point
// records it, done is open; done closes when that point publishes the
// record, which makes the entry ready, or gives it up, which makes it
// wanted again. needs counts the listed points not yet started that warm
// through it.
type frontEntry struct {
	key   core.FrontKey
	rec   *core.WarmRecord
	ready bool
	done  chan struct{}
	needs int
}

// contentsEntry is one tag-store snapshot that listed points share. It
// goes through a front entry's states, and it leaves the table as soon as
// no listed point that has not started needs it: the points that copy it
// hold the record itself.
type contentsEntry struct {
	key   snapKey
	rec   core.ContentsRecord
	ready bool
	done  chan struct{}
	needs int
}

// snapKey names a contents key in the runner's table: the entry of its
// front, and its tag store (core.ContentsKey.Tags). It is small enough
// for a map to hold inline.
type snapKey struct {
	front *frontEntry
	tags  cache.Config
}

// warmPlan is how one point warms. It replays a ready front record, or
// copies a ready snapshot with the front record that came with it; front
// and contents are the entries the point makes, claimed for it.
type warmPlan struct {
	replay   *core.WarmRecord
	copy     *core.ContentsRecord
	front    *frontEntry
	contents *contentsEntry
}

// listedPoint is one distinct point of a Prefetch list.
type listedPoint struct {
	pt, key  Point            // as listed, for its error, and normalized
	idx      int              // position in the list, and in Prefetch's errors
	memo     bool             // memoized when listed: it needs no warmup
	fkey     core.FrontKey    // zero without keys
	ckey     core.ContentsKey // zero without a contents key
	front    *frontEntry      // nil without a front key, or once started
	contents *contentsEntry   // nil unless another listed point shares ckey
	started  bool
}

// Prefetch runs the given points on Parallelism workers so later
// sequential Run calls hit the memo. Each distinct point is started once:
// a later spelling of an already listed point is dropped. A worker takes
// the first listed point whose front record and tag-store snapshot are
// ready, or that will make them, so no point starts while a warmup it
// could reuse is still being made (see the top of this file). All points
// run to completion even when some fail; every failure is reported,
// joined in input order. Cancelling ctx stops starting points and cancels
// the running ones, and every point never started gets its own error.
func (r *Runner) Prefetch(ctx context.Context, points []Point) error {
	errs := make([]error, len(points))
	l := r.list(points)
	var wg sync.WaitGroup
	for w := min(r.parallelism(), len(l)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lp := r.next(ctx, l); lp != nil; lp = r.next(ctx, l) {
				if _, err := r.run(ctx, lp.key); err != nil {
					errs[lp.idx] = fmt.Errorf("prefetch %s: %w", lp.pt, err)
				}
				r.dropPlan(lp.key)
			}
		}()
	}
	// Every worker's Run honors ctx (cancellation fails its point fast),
	// and next returns nil once ctx is done, so after a cancel this join
	// is bounded by one engine quantum per running point.
	wg.Wait() //alloyvet:allow(ctxflow)
	for _, lp := range r.unlist(l) {
		errs[lp.idx] = fmt.Errorf("prefetch %s: skipped: %w", lp.pt, ctx.Err())
	}
	return errors.Join(errs...)
}

// list normalizes and dedupes the points and registers what each one that
// is not memoized will warm through: its front entry, and its contents
// entry when another such point shares its contents key.
func (r *Runner) list(points []Point) []listedPoint {
	l := make([]listedPoint, 0, len(points))
	seen := make(map[Point]bool, len(points))
	for i, pt := range points {
		key := r.normalize(pt)
		if seen[key] {
			continue
		}
		seen[key] = true
		// A point without keys fails in NewSystem before it warms.
		f, c, err := core.Keys(r.p.Config(key))
		if err != nil {
			f, c = core.FrontKey{}, core.ContentsKey{}
		}
		l = append(l, listedPoint{pt: pt, key: key, idx: i, fkey: f, ckey: c})
	}
	shares := make(map[snapKey]int, len(l))
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range l {
		lp := &l[i]
		if _, lp.memo = r.cache[lp.key]; lp.memo || lp.fkey == (core.FrontKey{}) {
			continue
		}
		lp.front = r.frontLocked(lp.fkey)
		lp.front.needs++
		if lp.ckey != (core.ContentsKey{}) {
			shares[snapKey{lp.front, lp.ckey.Tags()}]++
		}
	}
	for i := range l {
		lp := &l[i]
		if lp.front == nil || lp.ckey == (core.ContentsKey{}) {
			continue
		}
		k := snapKey{lp.front, lp.ckey.Tags()}
		e := r.contents[k]
		if e == nil {
			if shares[k] < 2 {
				continue
			}
			e = &contentsEntry{key: k}
			r.contents[k] = e
		}
		e.needs++
		lp.contents = e
	}
	return l
}

// frontLocked returns the table's entry for a front key, adding a wanted
// one when there is none.
func (r *Runner) frontLocked(key core.FrontKey) *frontEntry {
	for _, f := range r.fronts {
		if f.key == key {
			return f
		}
	}
	f := &frontEntry{key: key}
	r.fronts = append(r.fronts, f)
	return f
}

// next starts the first listed point that can warm now and returns it.
// While every point not yet started waits on a warmup being made, it
// waits for the first such point's entry to be published or given up.
// It returns nil once every point has started or ctx is done.
func (r *Runner) next(ctx context.Context, l []listedPoint) *listedPoint {
	for ctx.Err() == nil {
		r.mu.Lock()
		lp, wait := r.pickLocked(l)
		r.mu.Unlock()
		if wait == nil {
			return lp
		}
		select {
		case <-wait:
		case <-ctx.Done():
		}
	}
	return nil
}

// pickLocked starts the first point of l that can warm now. Otherwise it
// returns the done channel of the entry the first waiting point waits on,
// or nil when every point has started.
func (r *Runner) pickLocked(l []listedPoint) (*listedPoint, chan struct{}) {
	var first chan struct{}
	for i := range l {
		lp := &l[i]
		if lp.started {
			continue
		}
		if wait := lp.waitsOn(); wait != nil {
			if first == nil {
				first = wait
			}
			continue
		}
		r.startLocked(lp)
		return lp, nil
	}
	return nil, first
}

// waitsOn returns the done channel of the entry being made that the point
// would reuse, or nil when it can start: its entries are ready, or no one
// is making them and the point will.
func (lp *listedPoint) waitsOn() chan struct{} {
	if lp.memo {
		return nil
	}
	if c := lp.contents; c != nil {
		if c.ready {
			return nil
		}
		if c.done != nil {
			return c.done
		}
	}
	if f := lp.front; f != nil {
		return f.done
	}
	return nil
}

// startLocked marks the point started, drops its needs and stores its
// plan: copy a ready snapshot; otherwise make the snapshot it shares, and
// replay its front or record it. The list lets go of the point's entries,
// so an entry the table drops is freed once its last user is done.
func (r *Runner) startLocked(lp *listedPoint) {
	lp.started = true
	f, c := lp.front, lp.contents
	lp.front, lp.contents = nil, nil
	if f != nil {
		f.needs--
	}
	if c != nil {
		c.needs--
	}
	var plan warmPlan
	switch {
	case lp.memo:
	case c != nil && c.ready:
		plan.copy = &c.rec
	default:
		if c != nil {
			plan.contents = c
			c.done = make(chan struct{})
		}
		if f != nil {
			plan.replay, plan.front = r.useFrontLocked(f)
		}
	}
	if f != nil {
		r.settleFrontLocked(f)
	}
	if c != nil {
		r.settleContentsLocked(c)
	}
	if plan != (warmPlan{}) {
		r.plans[lp.key] = plan
	}
}

// useFrontLocked hands out a front entry that no one is recording: its
// ready record to replay, made the most recently used, or else the entry
// itself, claimed for the caller to record.
func (r *Runner) useFrontLocked(f *frontEntry) (replay *core.WarmRecord, record *frontEntry) {
	if f.ready {
		r.touchFrontLocked(f)
		return f.rec, nil
	}
	f.rec, f.done = &core.WarmRecord{}, make(chan struct{})
	return nil, f
}

// touchFrontLocked makes a front entry the most recently used.
func (r *Runner) touchFrontLocked(f *frontEntry) {
	i := slices.Index(r.fronts, f)
	r.fronts = append(slices.Delete(r.fronts, i, i+1), f)
}

// settleFrontLocked drops a front entry that is neither ready nor being
// recorded once no listed point needs it.
func (r *Runner) settleFrontLocked(f *frontEntry) {
	if f.needs == 0 && !f.ready && f.done == nil {
		r.fronts = slices.DeleteFunc(r.fronts, func(e *frontEntry) bool { return e == f })
	}
}

// settleContentsLocked drops a snapshot entry that is not being made once
// no listed point that has not started needs it.
func (r *Runner) settleContentsLocked(c *contentsEntry) {
	if c.needs == 0 && c.done == nil {
		delete(r.contents, c.key)
	}
}

// trimFrontsLocked evicts the least recently used ready records that no
// listed point needs while more than parallelism() records are ready.
func (r *Runner) trimFrontsLocked() {
	ready := 0
	for _, f := range r.fronts {
		if f.ready {
			ready++
		}
	}
	for i := 0; ready > r.parallelism() && i < len(r.fronts); {
		if f := r.fronts[i]; f.ready && f.needs == 0 {
			r.fronts = slices.Delete(r.fronts, i, i+1)
			ready--
			continue
		}
		i++
	}
}

// unlist ends a Prefetch: it drops the needs of the points never started
// (ctx was cancelled) and returns them.
func (r *Runner) unlist(l []listedPoint) []*listedPoint {
	var skipped []*listedPoint
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range l {
		lp := &l[i]
		if lp.started {
			continue
		}
		skipped = append(skipped, lp)
		if f := lp.front; f != nil {
			f.needs--
			r.settleFrontLocked(f)
		}
		if c := lp.contents; c != nil {
			c.needs--
			r.settleContentsLocked(c)
		}
	}
	r.trimFrontsLocked()
	return skipped
}

// takePlan returns how a point warms: the plan Prefetch stored when it
// started the point, or, for a point run outside Prefetch, one made now.
// Such a point copies a ready snapshot of its contents key, or replays a
// ready record of its front; it waits while either is being made, and
// records its front when no one has. It makes no snapshot.
func (r *Runner) takePlan(ctx context.Context, key Point, front core.FrontKey, contents core.ContentsKey) (warmPlan, error) {
	for {
		r.mu.Lock()
		plan, wait := r.planLocked(key, front, contents)
		r.mu.Unlock()
		if wait == nil {
			return plan, nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return warmPlan{}, ctx.Err()
		}
	}
}

// planLocked is one step of takePlan: the plan, or the done channel of
// the entry to wait on. It counts the replays and copies it hands out.
func (r *Runner) planLocked(key Point, front core.FrontKey, contents core.ContentsKey) (warmPlan, chan struct{}) {
	plan, ok := r.plans[key]
	if ok {
		delete(r.plans, key)
	} else if f := r.frontLocked(front); contents == (core.ContentsKey{}) {
		if f.done != nil {
			return warmPlan{}, f.done
		}
		plan.replay, plan.front = r.useFrontLocked(f)
	} else if c := r.contents[snapKey{f, contents.Tags()}]; c != nil && c.ready {
		plan.copy = &c.rec
	} else if c != nil && c.done != nil {
		return warmPlan{}, c.done
	} else if f.done != nil {
		return warmPlan{}, f.done
	} else {
		plan.replay, plan.front = r.useFrontLocked(f)
	}
	if plan.copy != nil {
		r.m.WarmCopies++
	}
	if plan.copy != nil || plan.replay != nil {
		r.m.WarmReplays++
	}
	return plan, nil
}

// publish ends a point's part in the table once its warmup has ended:
// each record it made becomes ready if it is complete and is given up
// otherwise, so the next point that wants it makes it; either way the
// points waiting on it wake.
func (r *Runner) publish(plan warmPlan) {
	if plan.front == nil && plan.contents == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publishLocked(plan)
}

func (r *Runner) publishLocked(plan warmPlan) {
	if f := plan.front; f != nil {
		close(f.done)
		f.done = nil
		if f.ready = f.rec.Complete(); f.ready {
			r.touchFrontLocked(f)
			r.trimFrontsLocked()
		} else {
			f.rec = nil
			r.settleFrontLocked(f)
		}
	}
	if c := plan.contents; c != nil {
		close(c.done)
		c.done = nil
		if c.ready = c.rec.Complete(); !c.ready {
			c.rec = core.ContentsRecord{}
		}
		r.settleContentsLocked(c)
	}
}

// dropPlan gives up the roles of a started point whose simulation never
// took its plan: a memo hit, a failure before warmup, or a test's
// simulate.
func (r *Runner) dropPlan(key Point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if plan, ok := r.plans[key]; ok {
		delete(r.plans, key)
		r.publishLocked(plan)
	}
}

// simulatePoint is the real point execution: build a system from the
// runner params, warm it as its plan says, publish what the warmup made,
// and run the measured phase under ctx.
func (r *Runner) simulatePoint(ctx context.Context, key Point) (core.Result, error) {
	cfg := r.p.Config(key)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return core.Result{}, err
	}
	front, contents, err := core.Keys(cfg)
	if err != nil {
		return core.Result{}, err
	}
	plan, err := r.takePlan(ctx, key, front, contents)
	if err != nil {
		return core.Result{}, err
	}
	switch {
	case plan.copy != nil:
		err = sys.CopyWarmup(plan.copy)
	case plan.replay != nil:
		err = sys.ReplayWarmup(plan.replay)
	case plan.front != nil:
		err = sys.RecordWarmup(plan.front.rec)
	}
	if err == nil && plan.contents != nil {
		err = sys.RecordContents(&plan.contents.rec)
	}
	if err == nil {
		err = sys.Warm(ctx)
	}
	r.publish(plan)
	if err != nil {
		return core.Result{}, err
	}
	return sys.RunContext(ctx)
}
