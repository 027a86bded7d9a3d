// Package dramcache implements the four DRAM-cache organizations the paper
// compares:
//
//   - SRAMTag: tags in an impractical SRAM array (24-cycle tag
//     serialization), data in stacked DRAM, 32-way or direct-mapped.
//   - LHCache: the Loh-Hill design — tags co-located with data in each
//     DRAM row (three tag lines + 29 data ways), compound access
//     scheduling, LRU/DIP or random replacement, 29-way or direct-mapped.
//   - Alloy: the paper's contribution — tag and data fused into one 72 B
//     TAD streamed in a single burst of five (no tag serialization).
//   - IdealLO: the latency-optimized upper bound — transfers exactly one
//     line per hit with no latency overheads.
//
// Three organizations from beyond the paper, Banshee, Gemini and TDRAM
// (DESIGN.md §16), implement the same interface. One table in manager.go
// names all seven under 13 design names: each entry gives a design's row
// layout, its ways and its replacement policy, and the organization built
// around that tag store. Build and TagConfig derive the store from the
// entry the same way, and refuse a row its layout does not fit; Gemini,
// whose two regions split the rows, derives its own.
//
// Each organization layers its access-flow timing over a contents model
// (internal/cache) and charges all its DRAM traffic — tag reads, data
// bursts, replacement updates, fills — to the shared stacked-DRAM device
// (internal/dram), so bandwidth contention between designs' flows emerges
// structurally, exactly the effect Table 4 quantifies.
//
// Contents never depend on DRAM results. Which lines are resident, which
// way a fill takes, and every predictor, steering or admission decision
// (Gemini's region steering, Banshee's fill filter) follow from the
// sequence of accessed lines and write flags alone; a dram.Result only
// feeds the timestamps and row-hit flags of the AccessResult. The rule is
// structural: each design has one contents step, taking a line and a
// write flag and returning only what its timing needs, and both
// AccessInto and Warm call it. Warm is the step alone, with no DRAM call,
// no AccessResult and no statistic, and it is how core.System.warm fills
// every organization. TestWarmMatchesAccess checks that a design warmed
// through Warm holds what one driven through timed AccessInto calls
// holds, and TestWarmOnlyContentsExact that Warm touches nothing but
// contents. Replayed warmups (core.WarmRecord) rely on the same rule:
// with contents a function of the call sequence alone, an organization
// handed the calls another point's record describes, the very sequence
// its own direct warmup would issue, warms to the same contents. For a
// design whose contents are one tag store (TagConfig), the store that
// sequence leaves is the same for every organization built on an equal
// store, so core.System.CopyWarmup copies another point's warmed store
// (TagStore) instead of issuing the calls at all.
package dramcache

import (
	"alloysim/internal/cache"
	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
)

// Cycle aliases the simulator cycle type.
type Cycle = dram.Cycle

// TagCheckCycles is the latency of comparing a fetched tag (one cycle, as
// in §2.4 of the paper).
const TagCheckCycles = 1

// SRAMTagLatency is the SRAM tag-store lookup latency (Table 2).
const SRAMTagLatency = 24

// AccessResult describes the timing and outcome of a demand access.
type AccessResult struct {
	Hit bool
	// TagKnown is the cycle at which the hit/miss outcome is resolved.
	// Under the serial access model a miss may dispatch to memory only at
	// this point.
	TagKnown Cycle
	// DataReady is the cycle the data line is available (hits only).
	DataReady Cycle
	// Victim is the line displaced when a read miss allocated.
	Victim cache.Eviction
	// Allocated reports whether a miss reserved a frame (read misses do;
	// write misses are forwarded to memory without allocation).
	Allocated bool
	// First is the timing of the first stacked-DRAM access the
	// organization issued for this request (the tag-line read for
	// LH-Cache, the TAD stream for Alloy, the data read for SRAM-Tag and
	// IDEAL-LO hits); Probed reports whether any stacked access was
	// issued at all (SRAM-Tag misses resolve purely in the SRAM array).
	// The obs tracer decomposes hit latency into queue/bank/bus/burst
	// segments from these timestamps.
	First  dram.Result
	Probed bool
}

// Organization is a DRAM cache design.
type Organization interface {
	// AccessInto performs a demand access arriving at cycle now and
	// writes its result into r. It overwrites every field of r, so callers
	// may reuse one result across accesses. r must point into
	// caller-owned, long-lived storage (core.System keeps one scratch
	// result per path): a pointer passed through an interface method
	// escapes, so a stack variable's address costs one heap allocation per
	// call.
	AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult)
	// Warm applies the contents effect of AccessInto(_, line, write, _):
	// the tag store, its replacement state and any state that outlives
	// ResetStats (Banshee's page counters, Gemini's steering table). It
	// makes no DRAM call, produces no AccessResult and counts no
	// statistic beyond the tag store's own. Warmup's entry point.
	Warm(line memaddr.Line, write bool)
	// Fill models the DRAM traffic of installing a line after its memory
	// response arrives at cycle now, and returns the cycle that traffic
	// completes. Contents were already reserved by the missing AccessInto;
	// Fill only charges the write traffic.
	Fill(now Cycle, line memaddr.Line) Cycle
	// Contains probes contents without side effects (used by the
	// idealized MissMap and the Perfect predictor).
	Contains(line memaddr.Line) bool
	// TagStats exposes hit/miss counters.
	TagStats() cache.Stats
	// RowBufferHitRate is the fraction of demand accesses whose first
	// DRAM access hit an open row.
	RowBufferHitRate() float64
	// ResetStats zeroes counters while keeping contents; separates warmup
	// from measurement.
	ResetStats()
	// RegisterMetrics exports the organization's counters under the
	// given prefix. Registration is setup-time only.
	RegisterMetrics(x obs.Exporter, prefix string)
}

// base carries the machinery shared by all organizations.
type base struct {
	tags       *cache.Cache
	stacked    *dram.DRAM
	setsPerRow int        // consecutive sets that share one stacked row
	hitLat     stats.Mean // cache-internal hit latency, predictor excluded
	rowHits    stats.Counter
	accs       stats.Counter
}

func (b *base) Contains(line memaddr.Line) bool { return b.tags.Contains(line) }
func (b *base) stackedStats() dram.Stats        { return b.stacked.Stats() }
func (b *base) tagStore() *cache.Cache          { return b.tags }

// rowOf maps a set index to the stacked-DRAM row holding it.
//
//alloyvet:hotpath
func (b *base) rowOf(set int) uint64 { return uint64(set / b.setsPerRow) }

// ResetStats implements Organization.
func (b *base) ResetStats() {
	b.tags.ResetStats()
	b.hitLat = stats.Mean{}
	b.rowHits = stats.Counter{}
	b.accs = stats.Counter{}
}
func (b *base) TagStats() cache.Stats { return b.tags.Stats() }

// contents is the contents step of every design whose contents are one
// tag store: a write probes (a hit updates the line in place, a miss is
// forwarded to memory without allocating), a read accesses (a miss
// allocates, reporting what it evicted).
//
//alloyvet:hotpath
func (b *base) contents(line memaddr.Line, write bool) (hit bool, ev cache.Eviction) {
	if write {
		return b.tags.Probe(line, true), cache.Eviction{}
	}
	return b.tags.Access(line, false)
}

// Warm implements Organization for the designs whose contents step is
// base.contents.
//
//alloyvet:hotpath
func (b *base) Warm(line memaddr.Line, write bool) { b.contents(line, write) }

// observe records the outcome of a demand access.
//
//alloyvet:hotpath
func (b *base) observe(r *AccessResult, start Cycle) {
	b.accs.Inc()
	if r.First.RowHit {
		b.rowHits.Inc()
	}
	if r.Hit {
		b.hitLat.Observe(float64(r.DataReady - start))
	}
}

// RowBufferHitRate implements Organization. It is the statistic behind
// the paper's "56% on average for direct-mapped vs <0.1% for set-per-row"
// observation (§2.7).
func (b *base) RowBufferHitRate() float64 {
	if b.accs.Value() == 0 {
		return 0
	}
	return float64(b.rowHits.Value()) / float64(b.accs.Value())
}

// RegisterMetrics implements Organization for every design that embeds
// base: the tag-store counters plus the organization-level access, row
// locality, and hit-latency statistics (the hit-rate-vs-time phase
// figure divides the epoch deltas of tags hits over accesses). The
// shared stacked DRAM device is registered once by the system, not per
// organization.
func (b *base) RegisterMetrics(x obs.Exporter, prefix string) {
	b.tags.RegisterMetrics(x, prefix+"_tags")
	x.Counter(prefix+"_accesses_total", "demand accesses serviced", func() uint64 { return b.accs.Value() })
	x.Counter(prefix+"_row_buffer_hits_total", "demand accesses whose first DRAM access hit an open row", func() uint64 { return b.rowHits.Value() })
	x.Gauge(prefix+"_row_buffer_hit_rate", "row-buffer hit fraction of demand accesses", func() float64 { return b.RowBufferHitRate() })
	x.Gauge(prefix+"_hit_latency_mean_cycles", "mean cache-internal hit latency", func() float64 { return b.hitLat.Value() })
}
