package dramcache

import (
	"alloysim/internal/memaddr"
)

// IdealLO is the latency-optimized bound of §2.3: zero tag-serialization
// and predictor-serialization latency, exactly one 64 B line transferred
// per hit, and full row-buffer locality (direct-mapped, consecutive sets
// sharing rows). The hit/miss outcome is known instantly (TagKnown = now);
// the system pairs it with a perfect zero-latency predictor.
//
// With tag overhead, rows hold 28 lines like the Alloy Cache; the Table 7
// "IDEAL-LO + NoTagOverhead" variant stores 32 lines per row, recovering
// the full capacity.
type IdealLO struct {
	base
}

func newIdealLO(b base) Organization { return &IdealLO{b} }

// AccessInto implements Organization. The outcome is known immediately; hits
// transfer exactly one line; misses consume no DRAM-cache bandwidth.
//
//alloyvet:hotpath
func (d *IdealLO) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	*r = AccessResult{}
	r.TagKnown = now
	hit, ev := d.contents(line, write)
	if hit {
		d.stacked.AccessRowInto(now, d.rowOf(d.tags.SetOf(line)), d.stacked.BurstLine(), write, &r.First)
		r.Hit, r.DataReady = true, r.First.Done
		r.Probed = true
	} else if !write {
		r.Victim, r.Allocated = ev, true
	}
	d.observe(r, now)
}

// Fill implements Organization: one line write.
func (d *IdealLO) Fill(now Cycle, line memaddr.Line) Cycle {
	return d.stacked.AccessRow(now, d.rowOf(d.tags.SetOf(line)), d.stacked.BurstLine(), true).Done
}
