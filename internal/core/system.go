package core

import (
	"context"
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/cpu"
	"alloysim/internal/dram"
	"alloysim/internal/dramcache"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/predictor"
	"alloysim/internal/sim"
	"alloysim/internal/stats"
	"alloysim/internal/trace"
)

// System is one assembled simulation instance. Build it with NewSystem,
// run it once with Run.
type System struct {
	cfg      Config
	predKind PredictorKind

	eng     *sim.Engine
	l3      *cache.Cache
	org     dramcache.Organization // nil for the no-DRAM-cache baseline
	pred    predictor.Predictor
	auth    bool // predictor has perfect contents knowledge
	mem     *dram.DRAM
	stacked *dram.DRAM
	gens    []trace.Generator // per-core reference streams
	cores   []*cpu.Core

	// Measured statistics (reset after warmup).
	readLat        stats.Mean       // latency of reads serviced below the L3
	hitLat         stats.Mean       // DRAM-cache hits, measured from L3-miss detection
	hitLatHist     *stats.Histogram // same, bucketed for percentiles
	missLat        stats.Mean       // DRAM-cache misses, measured likewise
	missLatHist    *stats.Histogram
	acc            predictor.Accuracy
	belowReads     stats.Counter // L3 read misses
	belowWrites    stats.Counter // write traffic below the L3
	wastedMemReads stats.Counter // parallel probes discarded on cache hits
	footprint      *memaddr.LineSet

	// trc samples per-request lifecycle traces; nil (the common case)
	// disables tracing, and every hot-path call on it is a nil-safe
	// early return. Set via EnableObservability.
	trc *obs.Tracer

	// ts samples phase time-series columns at quantum boundaries
	// (sampleTelemetry); nil when disabled. Set via EnableTimeSeries.
	ts *obs.TimeSeries

	// Pooled engine events for the fill path (see events.go); freelists
	// keep steady-state scheduling allocation-free.
	fillFree *fillEvent
	wbFree   *writebackEvent

	// writeBuf holds the completion times of in-flight writes below the
	// L3, and writeBufCap is a soft limit on them. A write admitted to a
	// full buffer issues when the oldest write completes, and a demand
	// write also stalls its core until then (store-buffer backpressure),
	// which keeps write streams from reserving DRAM banks arbitrarily far
	// into the future. Every admitted write is appended all the same, and
	// L3 dirty writebacks never stall, so the buffer can hold more than
	// writeBufCap writes.
	writeBuf    writeHeap
	writeBufCap int

	// rres and wres are the out-params of the read and write paths'
	// Organization.AccessInto calls. A pointer passed through an interface
	// method escapes, so a per-call stack result would be one heap
	// allocation per below-L3 access; these live inside the System, which
	// is already on the heap. readBelow and writeBelow never nest, so each
	// path owns one.
	rres, wres dramcache.AccessResult

	// rec is the record warm writes its front into (RecordWarmup), and
	// replay the record it warms from instead (ReplayWarmup, CopyWarmup);
	// at most one is set, and both are nil for a plain direct warmup.
	// snap is the contents record Warm completes with the warmed tag store
	// (RecordContents), and copy the one replayWarm copies the store from
	// instead of replaying the Warm calls (CopyWarmup).
	rec, replay *WarmRecord
	snap, copy  *ContentsRecord

	// warmed is set once Warm has run, and warmErr is how it ended.
	warmed  bool
	warmErr error
	ran     bool
}

// NewSystem builds a system from the config.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, eng: sim.NewEngine(), writeBufCap: cfg.WriteBufferEntries}
	if s.writeBufCap <= 0 {
		s.writeBufCap = DefaultWriteBufferEntries
	}
	s.writeBuf = make(writeHeap, 0, s.writeBufCap)
	s.hitLatHist = stats.NewHistogram(8, 512) // 8-cycle buckets up to 4096
	s.missLatHist = stats.NewHistogram(8, 512)

	var err error
	if s.mem, err = dram.New(cfg.OffChip); err != nil {
		return nil, err
	}
	if s.stacked, err = dram.New(cfg.Stacked); err != nil {
		return nil, err
	}
	if s.org, err = buildOrganization(cfg.Design, cfg.ScaledCacheBytes(), s.stacked, cfg.DCPolicy); err != nil {
		return nil, err
	}

	l3Cfg, err := cfg.l3Cache()
	if err != nil {
		return nil, err
	}
	if s.l3, err = cache.New(l3Cfg); err != nil {
		return nil, err
	}

	s.predKind = cfg.resolvePredictor()
	if s.org != nil {
		if s.pred, err = buildPredictor(s.predKind, cfg.Cores, s.org); err != nil {
			return nil, err
		}
		s.auth = authoritative(s.predKind)
	}

	if cfg.TrackFootprint {
		s.footprint = memaddr.NewLineSet()
	}

	// One generator per rate-mode copy, at disjoint physical bases.
	prof, _ := trace.ByName(cfg.Workload)
	if cfg.GapScale > 1 {
		scaled := uint64(prof.GapMean) * uint64(cfg.GapScale)
		if scaled > uint64(^uint32(0)) {
			return nil, fmt.Errorf("core: GapScale %d overflows the %q gap mean %d", cfg.GapScale, cfg.Workload, prof.GapMean)
		}
		prof.GapMean = uint32(scaled)
	}
	copySpan := memaddr.Line(prof.FootprintLines()/cfg.Scale + uint64(len(prof.Components)) + 1)
	for i := 0; i < cfg.Cores; i++ {
		g, err := prof.Build(cfg.Seed+uint64(i)*0x9e37, cfg.Scale, memaddr.Line(i)*copySpan)
		if err != nil {
			return nil, err
		}
		s.gens = append(s.gens, g)
	}
	return s, nil
}

// cancelQuantum is how far the engine runs between cancellation checks in
// RunContext, in cycles. It is comfortably larger than the longest
// event-free stretch (the refresh interval) so the quantum loop never
// spins, and small enough that cancellation lands within microseconds of
// real time.
const cancelQuantum sim.Cycle = 1 << 16

// Warm runs the System's warmup (warm), once: directly, or from a record
// (ReplayWarmup, CopyWarmup). When it returns, every record the System was
// given to write is complete (RecordWarmup, RecordContents), so other
// Systems can warm from it while this one runs its measured phase.
// RunContext warms first if Warm has not run; a System whose warmup
// failed cannot run.
func (s *System) Warm(ctx context.Context) error {
	if s.warmed {
		return fmt.Errorf("core: System.Warm called twice")
	}
	s.warmed = true
	if s.warmErr = ctx.Err(); s.warmErr == nil {
		s.warmErr = s.warm(ctx)
	}
	if s.warmErr == nil && s.snap != nil {
		s.snap.complete(s)
	}
	// The measured phase reads no record, so whoever shares them alone
	// decides how long they live: a copied tag store, for one, is as big
	// as the System's own.
	s.rec, s.replay, s.snap, s.copy = nil, nil, nil, nil
	return s.warmErr
}

// Run warms the caches, executes the measured phase, and returns results.
// A System is single-use.
func (s *System) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is checked
// during warmup and between engine quanta of cancelQuantum cycles, so
// Ctrl-C and per-run timeouts abort a simulation within one quantum
// without perturbing the deterministic event order of uncancelled runs.
func (s *System) RunContext(ctx context.Context) (Result, error) {
	if s.ran {
		return Result{}, fmt.Errorf("core: System.Run called twice")
	}
	s.ran = true

	if !s.warmed {
		if err := s.Warm(ctx); err != nil {
			return Result{}, err
		}
	} else if s.warmErr != nil {
		return Result{}, s.warmErr
	}

	for i, g := range s.gens {
		c, err := cpu.New(i, s.cfg.CPU, g, s.eng, s, s.cfg.InstructionsPerCore)
		if err != nil {
			return Result{}, err
		}
		s.cores = append(s.cores, c)
		c.Start()
	}
	// Epoch 0: the post-warmup state, before any measured event runs.
	// Subsequent samples land exactly at cancelQuantum boundaries, so the
	// sampled series is a pure function of the configuration.
	s.sampleTelemetry()
	limit := s.eng.Now() + cancelQuantum
	for !s.eng.RunUntil(limit) {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// The cores retire the completions they reserved that fell due in
		// the quantum, so the engine reads as if each had fired.
		for _, c := range s.cores {
			c.Settle(limit)
		}
		s.sampleTelemetry()
		limit += cancelQuantum
	}

	// Final epoch: the drained end-of-run state (generally not on a
	// quantum boundary; the cycle column records where it landed).
	s.sampleTelemetry()
	return s.collect(), nil
}

// sampleTelemetry snapshots the registered time-series columns, if a
// series is attached, at the current engine cycle. Runs on the simulation
// goroutine at quantum boundaries; reads counters, changes nothing.
func (s *System) sampleTelemetry() { s.ts.Sample(s.eng.Now().Count()) }

// warm streams WarmupRefs references per core through the cache contents
// without advancing time, then clears all timing state and statistics so
// measurement starts from warm contents and cold clocks. It checks ctx
// periodically so long warmups cancel as promptly as the measured phase.
//
// Warmup is contents-only: each forwarded reference reaches the
// organization through Warm, which applies AccessInto's contents effect
// without its DRAM calls, AccessResult or statistics. Organizations take
// no contents decision from a DRAM result, and the closing resets discard
// every timing reservation and statistic a timed warmup would have left,
// so skipping them changes no simulated number.
//
// Given a record to write (RecordWarmup), the loop also stores each
// forwarded reference in it, and the record takes copies of the front
// after the closing resets. Given a record to replay
// (ReplayWarmup), warm runs replayWarm instead of simulating the front.
//
//alloyvet:hotpath
func (s *System) warm(ctx context.Context) error {
	if s.replay != nil {
		return s.replayWarm(ctx)
	}
	rec := s.rec
	for n := uint64(0); n < s.cfg.WarmupRefs; n++ {
		if n&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for c, g := range s.gens {
			ref := g.Next()
			kind, victim := warmSkip, memaddr.Line(0)
			if ref.Write {
				if !s.l3.Probe(ref.Line, true) {
					kind = warmWrite
				}
			} else if hit, ev := s.l3.Access(ref.Line, false); !hit {
				kind = warmRead
				if ev.Valid && ev.Dirty {
					kind, victim = warmVictim, ev.Line
				}
			}
			if kind == warmSkip {
				continue
			}
			if rec != nil && !rec.put(c, kind, victim, ref.Line) {
				s.abandonRecord()
				rec = nil
			}
			if s.org != nil {
				s.forwardWarm(kind, victim, ref.Line)
			}
		}
	}
	s.endWarm()
	if rec != nil {
		rec.complete(s)
	}
	return nil
}

// endWarm clears the timing state and statistics warmup left behind,
// keeping every cache's contents and replacement state.
func (s *System) endWarm() {
	s.mem.Reset()
	s.stacked.Reset()
	s.l3.ResetStats()
	if s.org != nil {
		s.org.ResetStats()
	}
}

// Read implements cpu.MemPort: the demand-load path. It returns the cycle
// the data arrives.
//
//alloyvet:hotpath
func (s *System) Read(now sim.Cycle, core int, ref *trace.Ref) sim.Cycle {
	if s.footprint != nil {
		s.footprint.Add(ref.Line)
	}
	hit, ev := s.l3.Access(ref.Line, false)
	if hit {
		return now + s.cfg.L3Latency
	}
	t0 := now + s.cfg.L3Latency // miss detected after the L3 lookup
	if ev.Valid && ev.Dirty {
		// L3 dirty writeback: buffered, never blocks the read.
		issueAt, _ := s.admitWrite(t0)
		s.writeBelow(issueAt, ev.Line)
	}
	s.belowReads.Inc()
	done := s.readBelow(t0, core, ref.PC, ref.Line)
	s.readLat.Observe(float64(done - t0))
	return done
}

// Write implements cpu.MemPort: stores update the L3 in place on a hit and
// are forwarded below on a miss (no-allocate). A full write buffer stalls
// the core until a slot frees.
//
//alloyvet:hotpath
func (s *System) Write(now sim.Cycle, core int, ref *trace.Ref) sim.Cycle {
	if s.footprint != nil {
		s.footprint.Add(ref.Line)
	}
	if s.l3.Probe(ref.Line, true) {
		return 0
	}
	issueAt, stall := s.admitWrite(now + s.cfg.L3Latency)
	s.writeBelow(issueAt, ref.Line)
	return stall
}

// admitWrite reserves a write-buffer slot. It returns the cycle the write
// may issue and the cycle the core may resume (zero when unconstrained).
//
//alloyvet:hotpath
func (s *System) admitWrite(t sim.Cycle) (issueAt, stall sim.Cycle) {
	// Retire completed writes.
	for len(s.writeBuf) > 0 && s.writeBuf[0] <= t {
		s.writeBuf.popMin()
	}
	if len(s.writeBuf) < s.writeBufCap {
		return t, 0
	}
	// Buffer full: the write waits for the oldest in-flight write.
	oldest := s.writeBuf[0]
	return oldest, oldest
}

// noteWrite records a write's completion time in the buffer.
//
//alloyvet:hotpath
func (s *System) noteWrite(done sim.Cycle) {
	//alloyvet:allow(hotpath) NewSystem gives the buffer writeBufCap slots; a write or L3 writeback admitted to a full buffer is appended all the same, so it can hold more (75 of 64 at once in a default lbm_r run on LH-Cache), and then the append grows it
	s.writeBuf = append(s.writeBuf, done)
	s.writeBuf.up(len(s.writeBuf) - 1)
}

// writeHeap is the write buffer's multiset of completion times, kept as a
// binary min-heap: admitWrite needs nothing but the multiset and its
// minimum, so it neither compacts nor scans the buffer.
type writeHeap []sim.Cycle

// up moves element i toward the root until its parent is no later.
//
//alloyvet:hotpath
func (h writeHeap) up(i int) {
	c := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= c {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
}

// popMin removes the earliest completion time.
//
//alloyvet:hotpath
func (h *writeHeap) popMin() {
	a := *h
	n := len(a) - 1
	c := a[n]
	*h = a[:n]
	i := 0
	for {
		k := 2*i + 1
		if k >= n {
			break
		}
		if k+1 < n && a[k+1] < a[k] {
			k++
		}
		if a[k] >= c {
			break
		}
		a[i] = a[k]
		i = k
	}
	a[i] = c
}

// readBelow services an L3 read miss, returning the data-arrival cycle.
// This is where the paper's access models live: the predictor chooses
// between the Serial Access Model (wait for the tag check before
// dispatching to memory) and the Parallel Access Model (probe memory
// alongside the cache).
//
//alloyvet:hotpath
func (s *System) readBelow(t0 sim.Cycle, core int, pc uint64, line memaddr.Line) sim.Cycle {
	tid := s.trc.Sample()
	if s.org == nil {
		var r dram.Result
		s.mem.AccessLineInto(t0, line, false, &r)
		if tid != 0 {
			s.traceMemOnly(tid, core, uint64(line), t0, &r)
		}
		return r.Done
	}

	predHit, predLat := s.pred.Predict(core, pc, line)
	t1 := t0 + predLat
	res := &s.rres
	s.org.AccessInto(t1, line, false, res)

	var dataAt sim.Cycle
	var m dram.Result
	memStart := t1
	usedMem := false
	if res.Hit {
		dataAt = res.DataReady
		if !predHit {
			// PAM path on an actual hit: the parallel memory probe is
			// wasted bandwidth (Table 5's "serviced by cache, predicted
			// memory" scenario).
			s.mem.AccessLineInto(t1, line, false, &m)
			usedMem = true
			s.wastedMemReads.Inc()
		}
		s.hitLat.Observe(float64(dataAt - t0))
		s.hitLatHist.Observe((dataAt - t0).Count())
	} else {
		if predHit {
			// SAM path on an actual miss: memory dispatch waits for the
			// cache-miss detection.
			memStart = res.TagKnown
		}
		s.mem.AccessLineInto(memStart, line, false, &m)
		usedMem = true
		dataAt = m.Done
		if !predHit && !s.auth && res.TagKnown > dataAt {
			// §5.1: data returned by memory cannot be consumed until the
			// tag check confirms the line is not dirty in the cache —
			// unless the predictor knows contents exactly.
			dataAt = res.TagKnown
		}
		s.missLat.Observe(float64(dataAt - t0))
		s.missLatHist.Observe((dataAt - t0).Count())
		if res.Allocated {
			// The fill happens when the memory response arrives; it must
			// be scheduled through the engine, not reserved now — a
			// far-future synchronous reservation would make temporally
			// earlier requests (processed later) queue behind it.
			s.scheduleFill(dataAt, line, res.Victim, tid, int32(core))
		}
	}
	if tid != 0 {
		s.traceRead(tid, core, uint64(line), t0, t1, dataAt, memStart, predHit, res, &m, usedMem)
	}
	s.pred.Update(core, pc, line, res.Hit)
	s.acc.Record(predHit, res.Hit)
	return dataAt
}

// writeBelow services write traffic below the L3 (L3 writebacks and
// forwarded write misses). Writes always use the serial model (§5.3).
//
//alloyvet:hotpath
func (s *System) writeBelow(t sim.Cycle, line memaddr.Line) {
	s.belowWrites.Inc()
	if s.org == nil {
		var r dram.Result
		s.mem.AccessLineInto(t, line, true, &r)
		s.noteWrite(r.Done)
		return
	}
	res := &s.wres
	s.org.AccessInto(t, line, true, res)
	if res.Hit {
		s.noteWrite(res.DataReady)
		return
	}
	var r dram.Result
	s.mem.AccessLineInto(res.TagKnown, line, true, &r)
	s.noteWrite(r.Done)
}
