package dramcache

import (
	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
)

// LHDataLinesPerRow is the Loh-Hill layout: a 2 KB row holds 3 tag lines
// and 29 data lines.
const LHDataLinesPerRow = 29

// LHTagLines is the number of tag lines streamed per set-associative
// access (3 lines, 12 bus cycles on the stacked device).
const LHTagLines = 3

// LHCache models the Loh-Hill tags-in-DRAM design (§2.2). A 29-way access
// first reads the row's three tag lines, performs the tag check, then —
// thanks to compound access scheduling, which keeps the row open — issues
// the data column access as a guaranteed row-buffer hit. Replacement-state
// updates write back a portion of the tag lines, consuming additional
// bandwidth. The direct-mapped and random-replacement variants of Table 1
// shed parts of this overhead.
type LHCache struct {
	base
	tagBurst Cycle // tag read: three lines when 29-way, one 16 B beat when direct-mapped
	update   bool  // replacement update traffic (true for LRU/DIP)
}

// newLHCache builds an LH-Cache around its store. Capacity counts data
// lines only; the three tag lines per row are organizational overhead
// exactly as in the paper.
func newLHCache(b base) Organization {
	cfg := b.tags.Config()
	c := &LHCache{base: b, tagBurst: 1, update: cfg.Assoc > 1 && cfg.Policy != "random"}
	if cfg.Assoc == LHDataLinesPerRow {
		c.tagBurst = LHTagLines * b.stacked.BurstLine()
	}
	return c
}

// AccessInto implements Organization. All accesses — including ones the
// MissMap already identified as misses, which arrive via Fill instead — read
// the tag lines first; compound access scheduling then guarantees the data
// column access hits the open row.
//
//alloyvet:hotpath
func (c *LHCache) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	set := c.tags.SetOf(line)
	row := c.rowOf(set)

	*r = AccessResult{}
	c.stacked.AccessRowInto(now, row, c.tagBurst, false, &r.First)
	tagKnown := r.First.Done + TagCheckCycles
	r.TagKnown = tagKnown
	r.Probed = true

	hit, ev := c.contents(line, write)
	if hit {
		// Compound access scheduling: the row is still open, so the data
		// access is a guaranteed row-buffer hit (CAS + one line burst).
		var data dram.Result
		c.stacked.AccessRowInto(tagKnown, row, c.stacked.BurstLine(), write, &data)
		r.Hit, r.DataReady = true, data.Done
		if c.update {
			// Replacement-state update (16 B beat), drained at write
			// priority; it consumes bandwidth and write-buffer capacity
			// but does not hold the bank against later reads.
			var upd dram.Result
			c.stacked.AccessRowInto(data.Done, row, 1, true, &upd)
		}
	} else if !write {
		r.Victim, r.Allocated = ev, true
	}
	c.observe(r, now)
}

// Fill implements Organization: installing a line requires reading the tag
// lines (victim selection, §5.1 of the paper), then writing the data line
// and the updated tag line.
func (c *LHCache) Fill(now Cycle, line memaddr.Line) Cycle {
	row := c.rowOf(c.tags.SetOf(line))
	tagRead := c.stacked.AccessRow(now, row, c.tagBurst, false)
	return c.stacked.AccessRow(tagRead.Done+TagCheckCycles, row, c.stacked.BurstLine()+1, true).Done
}
