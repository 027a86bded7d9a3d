package dramcache

import (
	"fmt"

	"alloysim/internal/cache"
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
	assoc      int
	setsPerRow int
	update     bool // replacement update traffic (true for LRU/DIP)
	name       string
}

// LHOption configures an LHCache.
type LHOption func(*lhParams)

type lhParams struct {
	assoc  int
	policy string
	seed   uint64
}

// LHWithAssoc selects 29-way (default) or direct-mapped (1).
func LHWithAssoc(assoc int) LHOption { return func(p *lhParams) { p.assoc = assoc } }

// LHWithPolicy selects the replacement policy ("dip" default, "random" for
// the Table 1 de-optimization).
func LHWithPolicy(policy string) LHOption { return func(p *lhParams) { p.policy = policy } }

// LHWithSeed seeds stochastic replacement; 0 keeps the legacy fixed seed
// (the Table 1 random variant's committed results depend on it).
func LHWithSeed(seed uint64) LHOption { return func(p *lhParams) { p.seed = seed } }

// NewLHCache builds an LH-Cache of the given capacity. Capacity counts
// data lines only; the three tag lines per row are organizational overhead
// exactly as in the paper.
func NewLHCache(capacityBytes uint64, stacked *dram.DRAM, opts ...LHOption) (*LHCache, error) {
	p := lhParams{assoc: LHDataLinesPerRow, policy: "dip"}
	for _, o := range opts {
		o(&p)
	}
	if p.assoc != 1 && p.assoc != LHDataLinesPerRow {
		return nil, fmt.Errorf("dramcache: LH-Cache supports assoc 1 or %d, got %d", LHDataLinesPerRow, p.assoc)
	}
	rows := capacityBytes / uint64(stacked.Config().RowBytes)
	if rows == 0 {
		return nil, fmt.Errorf("dramcache: capacity %d smaller than one row", capacityBytes)
	}
	sets := int(rows) * LHDataLinesPerRow / p.assoc
	tags, err := cache.New(cache.Config{Sets: sets, Assoc: p.assoc, Policy: p.policy, Seed: p.seed})
	if err != nil {
		return nil, err
	}
	c := &LHCache{
		assoc:  p.assoc,
		update: p.assoc > 1 && p.policy != "random",
	}
	c.tags = tags
	c.stacked = stacked
	if p.assoc == LHDataLinesPerRow {
		c.setsPerRow = 1
		c.name = fmt.Sprintf("LH-Cache (%d-way, %s)", p.assoc, p.policy)
	} else {
		c.setsPerRow = LHDataLinesPerRow
		c.name = "LH-Cache (1-way)"
	}
	return c, nil
}

// Name implements Organization.
func (c *LHCache) Name() string { return c.name }

// CapacityBytes implements Organization.
func (c *LHCache) CapacityBytes() uint64 {
	return uint64(c.tags.Config().Lines()) * memaddr.LineSizeBytes
}

func (c *LHCache) rowOf(set int) uint64 { return uint64(set / c.setsPerRow) }

// tagBurst is the bus occupancy of the tag read: three lines (12 cycles)
// for the set-associative organization, one 16 B beat for direct-mapped.
func (c *LHCache) tagBurst() Cycle {
	if c.assoc == LHDataLinesPerRow {
		return LHTagLines * c.stacked.BurstLine()
	}
	return 1
}

// Access implements Organization. All accesses — including ones the
// MissMap already identified as misses, which arrive via Fill instead —
// read the tag lines first; compound access scheduling then guarantees the
// data column access hits the open row.
func (c *LHCache) Access(now Cycle, line memaddr.Line, write bool) AccessResult {
	var r AccessResult
	c.AccessInto(now, line, write, &r)
	return r
}

// AccessInto implements Organization; see Access for the flow.
//
//alloyvet:hotpath
func (c *LHCache) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	set := c.tags.SetOf(line)
	row := c.rowOf(set)

	*r = AccessResult{}
	c.stacked.AccessRowInto(now, row, c.tagBurst(), false, &r.First)
	tagKnown := r.First.Done + TagCheckCycles
	r.TagKnown = tagKnown
	r.RowHit = r.First.RowHit
	r.Probed = true

	var hit bool
	var ev cache.Eviction
	if write {
		hit = c.tags.Probe(line, true)
	} else {
		hit, ev = c.tags.Access(line, false)
	}
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
func (c *LHCache) Fill(now Cycle, line memaddr.Line) FillResult {
	row := c.rowOf(c.tags.SetOf(line))
	tagRead := c.stacked.AccessRow(now, row, c.tagBurst(), false)
	write := c.stacked.AccessRow(tagRead.Done+TagCheckCycles, row, c.stacked.BurstLine()+1, true)
	return FillResult{Done: write.Done}
}
