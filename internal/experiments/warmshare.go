package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"alloysim/internal/cache"
	"alloysim/internal/core"
)

// Warm sharing: a point's warmup inputs are known before it runs. Its
// front key (core.Keys) names the generators and L3 every warmup
// reference streams through; its contents key adds the DRAM-cache
// tag store, for the designs whose warmup touches nothing else. Prefetch
// plans its whole list before it starts a point: it groups the points by
// front key and then by contents key, and gives each key that two or more
// listed points share one entry, local to the call. One point makes an
// entry's record and the others reuse it: a front is recorded once and
// replayed, a tag store is recorded once and copied.
// An entry is wanted, being made by one point, or ready. A worker starts
// a point only when the entries it can reuse are ready, or when no one is
// making them and the point will. A point publishes what it made when its
// warmup ends, not when its measured phase ends, and a point that returns
// without publishing gives its role up to the next listed point that
// wants it. Only two things hold an entry: the listed points that share
// its key, each until it starts (listedPoint.front and contents), and the
// plan of the point making its record, until publish zeroes it; the
// points reusing the record hold the record itself. So an entry is freed
// once the last point that shares its key has started and no one is
// making it. A point whose keys no other listed point shares gets the
// zero plan and warms directly, as a Run memo miss does.

// entry is a record that listed points share: a warmup front
// (core.WarmRecord), or a tag store warmed through one
// (core.ContentsRecord). While a point makes it, done is open; done
// closes when that point publishes the record, which makes the entry
// ready, or gives it up, which makes it wanted again.
type entry struct {
	front *core.WarmRecord    // a front entry's record
	store core.ContentsRecord // a tag-store entry's record
	ready bool
	done  chan struct{}
}

// warmPlan is how one listed point warms. It replays a ready front
// record, or copies a ready store record with the front record that came
// with it; front and contents are the entries it makes, claimed for it.
// The zero plan warms directly.
type warmPlan struct {
	s        *sweep
	replay   *core.WarmRecord
	copy     *core.ContentsRecord
	front    *entry
	contents *entry
}

// listedPoint is one distinct point of a Prefetch list that was not
// memoized when listed.
type listedPoint struct {
	pt, key  Point  // as listed, for its error, and normalized
	idx      int    // position in the list, and in Prefetch's errors
	group    [2]int // where its front key and its contents key first appear
	front    *entry // the front it shares; nil without one, or once started
	contents *entry // the tag store it shares; likewise
	started  bool
	plan     warmPlan
}

// sweep is one Prefetch call: its grouped points, which hold the entries
// they share.
type sweep struct {
	mu sync.Mutex
	// l is fixed once newSweep returns; its points change under mu.
	l []listedPoint //alloyvet:owner newSweep
}

// storeKey names a contents key within one list: the first listed point
// of its front, and its tag store (core.ContentsKey.Tags). It is small
// enough for a map to hold inline.
type storeKey struct {
	front int
	tags  cache.Config
}

// Prefetch runs the given points on Parallelism workers so later
// sequential Run calls hit the memo. A memoized point, and a later
// spelling of a listed one, is dropped; the rest run grouped by warmup
// front and tag store, and a worker takes the first of them whose shared
// records are ready, or that will make them, so no point starts while a
// warmup it could reuse is being made (see the top of this file). All
// points run to completion even when some fail; every failure is
// reported, joined in input order. Cancelling ctx stops starting points
// and cancels the running ones, and every point never started gets its
// own error.
func (r *Runner) Prefetch(ctx context.Context, points []Point) error {
	errs := make([]error, len(points))
	s := r.newSweep(points)
	var wg sync.WaitGroup
	for w := min(r.parallelism(), len(s.l)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lp := s.next(ctx); lp != nil; lp = s.next(ctx) {
				if _, err := r.run(ctx, lp.key, &lp.plan); err != nil {
					errs[lp.idx] = fmt.Errorf("prefetch %s: %w", lp.pt, err)
				}
				lp.plan.publish() // gives up the roles of a run that never warmed
			}
		}()
	}
	// Every worker's Run honors ctx (cancellation fails its point fast),
	// and next returns nil once ctx is done, so after a cancel this join
	// is bounded by one engine quantum per running point.
	wg.Wait() //alloyvet:allow(ctxflow)
	for i := range s.l {
		if lp := &s.l[i]; !lp.started {
			errs[lp.idx] = fmt.Errorf("prefetch %s: skipped: %w", lp.pt, ctx.Err())
		}
	}
	return errors.Join(errs...)
}

// newSweep lists the points Prefetch starts: normalized, deduped and not
// memoized, grouped by front key and then by contents key, each in order
// of first appearance. It gives each key two or more of them share an
// entry.
func (r *Runner) newSweep(points []Point) *sweep {
	s := &sweep{l: make([]listedPoint, 0, len(points))}
	seen := make(map[Point]bool, len(points))
	fronts := make(map[core.FrontKey]int) // a front key's first point in s.l
	stores := make(map[storeKey]int)      // a contents key's first point
	for i, pt := range points {
		key := r.normalize(pt)
		if seen[key] || r.memoized(key) {
			continue
		}
		seen[key] = true
		n := len(s.l)
		lp := listedPoint{pt: pt, key: key, idx: i, group: [2]int{n, n}}
		// A point without keys fails in NewSystem before it warms.
		if f, c, err := core.Keys(r.p.Config(key)); err == nil {
			if j, ok := fronts[f]; ok {
				lp.group[0], lp.front = j, share(&s.l[j].front)
			} else {
				fronts[f] = n
			}
			if c != (core.ContentsKey{}) {
				k := storeKey{lp.group[0], c.Tags()}
				if j, ok := stores[k]; ok {
					lp.group[1], lp.contents = j, share(&s.l[j].contents)
				} else {
					stores[k] = n
				}
			}
		}
		s.l = append(s.l, lp)
	}
	slices.SortStableFunc(s.l, func(a, b listedPoint) int {
		return cmp.Or(cmp.Compare(a.group[0], b.group[0]), cmp.Compare(a.group[1], b.group[1]))
	})
	return s
}

// share returns the entry of a key for one more listed point, given the
// entry field of the key's first point, and makes the entry when this
// point is the key's second.
func share(first **entry) *entry {
	if *first == nil {
		*first = &entry{}
	}
	return *first
}

// memoized reports whether the normalized point has a result.
func (r *Runner) memoized(key Point) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.cache[key]
	return ok
}

// next starts the first listed point that can warm now and returns it.
// While every point not yet started waits on a record being made, it
// waits for the first such point's entry to be published or given up.
// It returns nil once every point has started or ctx is done.
func (s *sweep) next(ctx context.Context) *listedPoint {
	for ctx.Err() == nil {
		s.mu.Lock()
		lp, wait := s.pickLocked()
		s.mu.Unlock()
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

// pickLocked starts the first listed point that can warm now. Otherwise
// it returns the done channel of the entry the first waiting point waits
// on, or nil when every point has started.
func (s *sweep) pickLocked() (*listedPoint, chan struct{}) {
	var first chan struct{}
	for i := range s.l {
		lp := &s.l[i]
		if lp.started {
			continue
		}
		if wait := lp.waitsOn(); wait != nil {
			if first == nil {
				first = wait
			}
			continue
		}
		s.startLocked(lp)
		return lp, nil
	}
	return nil, first
}

// waitsOn returns the done channel of the entry being made that the point
// would reuse, or nil when it can start: its entries are ready, or no one
// is making them and the point will.
func (lp *listedPoint) waitsOn() chan struct{} {
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

// startLocked marks the point started and gives it its plan: copy a
// ready store record; otherwise make the store record it shares, and
// replay its front or record it. The point lets go of its entries, so
// each is freed once the last point that shares it has started and no
// plan is making it.
func (s *sweep) startLocked(lp *listedPoint) {
	lp.started = true
	f, c := lp.front, lp.contents
	lp.front, lp.contents = nil, nil
	lp.plan = warmPlan{s: s}
	switch {
	case c != nil && c.ready:
		lp.plan.copy = &c.store
	case f != nil && f.ready:
		lp.plan.replay = f.front
	case f != nil:
		f.front, f.done = &core.WarmRecord{}, make(chan struct{})
		lp.plan.front = f
	}
	if c != nil && !c.ready {
		c.done = make(chan struct{})
		lp.plan.contents = c
	}
}

// publish ends a point's part in its sweep: each record it made becomes
// ready if it is complete and is given up otherwise, so the next point
// that wants it makes it; either way the points waiting on it wake. The
// plan lets go of every record, so a second publish does nothing.
func (p *warmPlan) publish() {
	s, f, c := p.s, p.front, p.contents
	*p = warmPlan{}
	if f == nil && c == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f != nil {
		f.publishLocked(f.front.Complete())
	}
	if c != nil {
		c.publishLocked(c.store.Complete())
	}
}

// publishLocked ends the making of the entry's record, under its sweep's
// mu: ready when it is complete, given up otherwise.
func (e *entry) publishLocked(complete bool) {
	close(e.done)
	e.done = nil
	if e.ready = complete; !complete {
		e.front, e.store = nil, core.ContentsRecord{}
	}
}

// simulatePoint is the real point execution: build a system from the
// runner params, warm it as its plan says, publish what the warmup made,
// and run the measured phase under ctx.
func (r *Runner) simulatePoint(ctx context.Context, key Point, plan *warmPlan) (core.Result, error) {
	sys, err := core.NewSystem(r.p.Config(key))
	if err != nil {
		return core.Result{}, err
	}
	err = r.warm(ctx, sys, plan)
	plan.publish()
	if err != nil {
		return core.Result{}, err
	}
	return sys.RunContext(ctx)
}

// warm warms the System as its plan says, counting the replays and copies
// and the warmup's wall time.
func (r *Runner) warm(ctx context.Context, sys *core.System, plan *warmPlan) error {
	var err error
	switch {
	case plan.copy != nil:
		err = sys.CopyWarmup(plan.copy)
	case plan.replay != nil:
		err = sys.ReplayWarmup(plan.replay)
	case plan.front != nil:
		err = sys.RecordWarmup(plan.front.front)
	}
	if err == nil && plan.contents != nil {
		err = sys.RecordContents(&plan.contents.store)
	}
	if err != nil {
		return err
	}
	// Host wall time, like Metrics.SimWall: it never influences a result.
	start := time.Now() //alloyvet:allow(determinism)
	err = sys.Warm(ctx)
	elapsed := time.Since(start) //alloyvet:allow(determinism)
	r.mu.Lock()
	r.m.WarmWall += elapsed
	if plan.copy != nil || plan.replay != nil {
		r.m.WarmReplays++
		if plan.copy != nil {
			r.m.WarmCopies++
		}
	}
	r.mu.Unlock()
	return err
}
