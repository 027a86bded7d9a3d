package dramcache

import (
	"alloysim/internal/cache"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
)

// bansheeFreqBits sizes the frequency-counter table: one 2-bit counter per
// hashed 4 KB page, 16K entries.
const bansheeFreqBits = 14

// bansheeFreqMax saturates the per-page counters (2-bit, values 0..3).
// Counters are never reset on admission: hotness is a page property, so
// once a page has crossed the threshold every further line of it admits
// on its first miss.
const bansheeFreqMax = 3

// BansheeDefaultThreshold is the fill-filter admission threshold: a page
// must miss this many times before its lines are admitted.
const BansheeDefaultThreshold = 2

// Banshee models the bandwidth-efficient design of Yu et al. (MICRO 2017):
// cache contents are tracked at page granularity in the TLB/page-table
// path, so lookups are on-chip (no in-DRAM tags — all 32 lines of each row
// hold data) and the hit/miss outcome is known after a single tag-check
// cycle. The defining counter-bet to Alloy's fill-on-every-miss is the
// frequency-based fill filter: a miss bumps a per-page counter and
// bypasses straight to off-chip memory; only once the counter crosses the
// admission threshold is the line installed. Cold and streaming pages
// never consume fill bandwidth.
//
// The system pairs Banshee with the MissMap predictor by default: an
// authoritative on-chip structure whose serialization latency stands in
// for the page-table-walk cost of the tag lookup.
type Banshee struct {
	base
	threshold uint8
	freq      []uint8 // per hashed page: saturating miss counter
	bypassed  stats.Counter
	admitted  stats.Counter
}

func newBanshee(b base) Organization {
	return &Banshee{base: b, threshold: BansheeDefaultThreshold, freq: make([]uint8, 1<<bansheeFreqBits)}
}

//alloyvet:hotpath
func (b *Banshee) freqIndex(line memaddr.Line) uint64 {
	return memaddr.FoldXOR(uint64(line)>>memaddr.PageShift, bansheeFreqBits)
}

// AccessInto implements Organization. The page-table-resident tags resolve
// the outcome after one tag-check cycle; hits read exactly one line from the
// stacked DRAM. Read misses consult the fill filter: below the admission
// threshold they bump the page's counter and bypass (no frame reserved, no
// stacked traffic); at the threshold the line is admitted and will be filled
// from the memory response. Counters saturate and are never reset — hotness
// is a page property, so once a page crosses the threshold its remaining
// lines admit on their first miss. Write misses are forwarded to memory
// without training the filter — Banshee's filter learns read reuse.
//
//alloyvet:hotpath
func (b *Banshee) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	*r = AccessResult{}
	r.TagKnown = now + TagCheckCycles
	hit, admitted, ev := b.contents(line, write)
	switch {
	case hit:
		b.stacked.AccessRowInto(r.TagKnown, b.rowOf(b.tags.SetOf(line)), b.stacked.BurstLine(), write, &r.First)
		r.Hit, r.DataReady = true, r.First.Done
		r.Probed = true
	case admitted:
		r.Victim, r.Allocated = ev, true
		b.admitted.Inc()
	case !write:
		b.bypassed.Inc()
	}
	b.observe(r, now)
}

// Warm implements Organization.
//
//alloyvet:hotpath
func (b *Banshee) Warm(line memaddr.Line, write bool) { b.contents(line, write) }

// contents is Banshee's contents step: the tag probe and, on a read miss,
// the page counter's update and the fill of a line the filter admits. It
// reports the hit, and for a read miss whether the line was admitted and
// what its fill evicted.
//
//alloyvet:hotpath
func (b *Banshee) contents(line memaddr.Line, write bool) (hit, admitted bool, ev cache.Eviction) {
	if b.tags.Probe(line, write) {
		return true, false, cache.Eviction{}
	}
	if write {
		return false, false, cache.Eviction{}
	}
	idx := b.freqIndex(line)
	c := b.freq[idx]
	if c < bansheeFreqMax {
		c++
		b.freq[idx] = c
	}
	if c < b.threshold {
		if invariants.Enabled && b.tags.Contains(line) {
			invariants.Failf("dramcache: Banshee bypassed line %d that is already resident", line)
		}
		return false, false, cache.Eviction{}
	}
	ev = b.tags.Fill(line, false)
	if invariants.Enabled && !b.tags.Contains(line) {
		invariants.Failf("dramcache: Banshee admitted line %d but contents do not hold it", line)
	}
	return false, true, ev
}

// Fill implements Organization: one line write; tags live on-chip, so no
// tag traffic is charged.
func (b *Banshee) Fill(now Cycle, line memaddr.Line) Cycle {
	return b.stacked.AccessRow(now, b.rowOf(b.tags.SetOf(line)), b.stacked.BurstLine(), true).Done
}

// ResetStats implements Organization; the fill-filter counters are state,
// not statistics, and survive the reset like cache contents do.
func (b *Banshee) ResetStats() {
	b.base.ResetStats()
	b.bypassed = stats.Counter{}
	b.admitted = stats.Counter{}
}

// RegisterMetrics implements Organization, adding the fill-filter counters
// to the base set.
func (b *Banshee) RegisterMetrics(x obs.Exporter, prefix string) {
	b.base.RegisterMetrics(x, prefix)
	x.Counter(prefix+"_bypassed_fills_total", "read misses bypassed to memory by the fill filter", func() uint64 { return b.bypassed.Value() })
	x.Counter(prefix+"_admitted_fills_total", "read misses admitted past the fill filter", func() uint64 { return b.admitted.Value() })
}
