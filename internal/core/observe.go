package core

import (
	"alloysim/internal/dram"
	"alloysim/internal/dramcache"
	"alloysim/internal/obs"
	"alloysim/internal/sim"
)

// EnableObservability attaches a metrics registry and/or a sampling
// tracer to the system. Call it after NewSystem and before Run; either
// argument may be nil to enable only the other. Registration captures
// read-back closures over the existing statistic fields — nothing about
// the simulation's event order or timing changes, which is what keeps
// results/ byte-identical whether or not observability is on.
func (s *System) EnableObservability(reg *obs.Registry, trc *obs.Tracer) {
	s.trc = trc
	if reg == nil {
		return
	}
	s.export(reg)
	// The time series keys every row by cycle and has no histogram form,
	// so these three go to the registry alone.
	reg.Counter("sim_engine_cycles_total", "current simulated cycle", func() uint64 { return s.eng.Now().Count() })
	reg.RegisterHistogram("hit_latency_cycles", "DRAM-cache hit latency from L3-miss detection", s.hitLatHist)
	reg.RegisterHistogram("miss_latency_cycles", "DRAM-cache miss latency from L3-miss detection", s.missLatHist)
}

// EnableTimeSeries attaches a phase time-series sampler. Call it after
// NewSystem and before Run; RunContext samples the registered columns at
// epoch 0, at every cancelQuantum boundary, and once at drain, so the
// exported series is a pure function of the configuration. Its columns
// are export's list plus, when there is a DRAM cache, one column per
// stacked bank (the object of the paper's bank-occupancy analysis); the
// off-chip device exports aggregates only, and the registry never
// carries per-bank series. Like EnableObservability, registration
// captures read-back closures only; simulation results are unchanged.
func (s *System) EnableTimeSeries(ts *obs.TimeSeries) {
	if ts == nil {
		return
	}
	s.ts = ts
	s.export(ts)
	if s.org != nil {
		s.stacked.RegisterBankTimeSeries(ts, "dram_stacked")
	}
}

// export hands every component's counters to x: the one list that the
// registry and the time series both read.
func (s *System) export(x obs.Exporter) {
	s.eng.RegisterMetrics(x, "sim_engine")
	s.l3.RegisterMetrics(x, "l3")
	s.mem.RegisterMetrics(x, "dram_offchip")
	s.stacked.RegisterMetrics(x, "dram_stacked")
	if s.org != nil {
		s.org.RegisterMetrics(x, "dramcache")
		s.acc.RegisterMetrics(x, "predictor")
	}
	x.Counter("below_reads_total", "L3 read misses serviced below the L3", func() uint64 { return s.belowReads.Value() })
	x.Counter("below_writes_total", "write traffic below the L3", func() uint64 { return s.belowWrites.Value() })
	x.Counter("wasted_mem_reads_total", "parallel memory probes discarded on cache hits", func() uint64 { return s.wastedMemReads.Value() })
	x.Gauge("read_latency_mean_cycles", "mean latency of reads serviced below the L3", func() float64 { return s.readLat.Value() })
}

// cyclesBetween returns b-a in raw cycles, saturating at zero. The trace
// decomposition subtracts timestamps that are ordered on the critical
// path by construction; saturation keeps a future model change from
// turning a misordering into a wrapped uint64.
func cyclesBetween(a, b sim.Cycle) uint64 {
	if b <= a {
		return 0
	}
	return (b - a).Count()
}

// dramSpans records the queue/bank/bus/burst segments of one DRAM access
// as four spans starting from its issue cycle.
func (s *System) dramSpans(tid uint64, core int32, line uint64, issue sim.Cycle, r *dram.Result, queue, bank, bus, burst obs.SpanKind, hit bool) {
	s.trc.Span(tid, queue, core, line, issue.Count(), cyclesBetween(issue, r.Start), hit)
	s.trc.Span(tid, bank, core, line, r.Start.Count(), cyclesBetween(r.Start, r.CASDone), hit)
	s.trc.Span(tid, bus, core, line, r.CASDone.Count(), cyclesBetween(r.CASDone, r.BusStart), hit)
	s.trc.Span(tid, burst, core, line, r.BusStart.Count(), cyclesBetween(r.BusStart, r.Done), hit)
}

// traceMemOnly records the lifecycle of a baseline (no DRAM cache) read:
// one read span plus the off-chip segments, and a breakdown whose only
// components are the memory ones.
func (s *System) traceMemOnly(tid uint64, core int, lineAddr uint64, t0 sim.Cycle, m *dram.Result) {
	c := int32(core)
	s.trc.Span(tid, obs.SpanRead, c, lineAddr, t0.Count(), cyclesBetween(t0, m.Done), false)
	s.dramSpans(tid, c, lineAddr, t0, m, obs.SpanMemQueue, obs.SpanMemBank, obs.SpanMemBus, obs.SpanMemBurst, false)
	total := cyclesBetween(t0, m.Done)
	b := obs.Breakdown{
		ReqID: tid, Line: lineAddr, Core: c,
		Start: t0.Count(), Total: total,
		MemQueue: cyclesBetween(t0, m.Start),
		MemBank:  cyclesBetween(m.Start, m.CASDone),
		MemBus:   cyclesBetween(m.CASDone, m.BusStart),
		MemBurst: cyclesBetween(m.BusStart, m.Done),
	}
	b.Other = total - b.MemQueue - b.MemBank - b.MemBus - b.MemBurst
	s.trc.Record(b)
}

// traceRead records a sampled DRAM-cache read's spans and its
// critical-path-additive latency breakdown.
//
// The decomposition rule: a segment is charged only when it lies on the
// request's critical path. Cache segments count on hits and on serialized
// (predicted-hit) misses; memory segments count on misses; the parallel
// PAM probe of the losing side is shown in the span timeline but never
// charged. Other is the exact remainder — tag checks, SRAM lookups, the
// §5.1 tag-confirmation wait — so every row's components sum to Total.
func (s *System) traceRead(tid uint64, core int, lineAddr uint64, t0, t1, dataAt, memStart sim.Cycle,
	predHit bool, res *dramcache.AccessResult, m *dram.Result, usedMem bool) {
	c := int32(core)
	total := cyclesBetween(t0, dataAt)
	s.trc.Span(tid, obs.SpanRead, c, lineAddr, t0.Count(), total, res.Hit)
	s.trc.Span(tid, obs.SpanPredict, c, lineAddr, t0.Count(), cyclesBetween(t0, t1), res.Hit)
	if res.Probed {
		s.dramSpans(tid, c, lineAddr, t1, &res.First, obs.SpanDCQueue, obs.SpanDCBank, obs.SpanDCBus, obs.SpanDCBurst, res.Hit)
	}
	if usedMem {
		s.dramSpans(tid, c, lineAddr, memStart, m, obs.SpanMemQueue, obs.SpanMemBank, obs.SpanMemBus, obs.SpanMemBurst, res.Hit)
	}

	b := obs.Breakdown{
		ReqID: tid, Line: lineAddr, Core: c, Hit: res.Hit,
		Start: t0.Count(), Total: total,
		Pred: cyclesBetween(t0, t1),
	}
	// Cache segments are on the critical path for hits always, and for
	// misses only when the predictor said hit (SAM serializes the memory
	// dispatch behind the tag check). Designs with a dedicated tag path
	// (TDRAM) resolve a miss mid-burst: memory dispatch then overlaps the
	// tail of the cache access, so segments are clipped at the dispatch
	// cycle — only the pre-dispatch portion is serialized. For every
	// tags-with-data design TagKnown follows First.Done and the clip is a
	// no-op.
	if res.Probed && (res.Hit || predHit) {
		lim := res.First.Done
		if !res.Hit && memStart < lim {
			lim = memStart
		}
		b.CacheQueue = cyclesBetween(t1, min(res.First.Start, lim))
		b.CacheBank = cyclesBetween(min(res.First.Start, lim), min(res.First.CASDone, lim))
		b.CacheBus = cyclesBetween(min(res.First.CASDone, lim), min(res.First.BusStart, lim))
		b.CacheBurst = cyclesBetween(min(res.First.BusStart, lim), lim)
	}
	if usedMem && !res.Hit {
		b.MemQueue = cyclesBetween(memStart, m.Start)
		b.MemBank = cyclesBetween(m.Start, m.CASDone)
		b.MemBus = cyclesBetween(m.CASDone, m.BusStart)
		b.MemBurst = cyclesBetween(m.BusStart, m.Done)
	}
	charged := b.Pred + b.CacheQueue + b.CacheBank + b.CacheBus + b.CacheBurst +
		b.MemQueue + b.MemBank + b.MemBus + b.MemBurst
	if charged <= total {
		b.Other = total - charged
	} else {
		// A hit slower than its cache segments cannot happen on the
		// critical path; clamp rather than wrap if a model change breaks
		// the ordering.
		b.Other = 0
	}
	s.trc.Record(b)
}
