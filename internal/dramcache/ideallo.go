package dramcache

import (
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/dram"
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
	setsPerRow int
	name       string
}

// IdealLOOption configures the ideal design.
type IdealLOOption func(*idealParams)

type idealParams struct {
	noTagOverhead bool
}

// IdealNoTagOverhead removes the in-DRAM tag storage cost (Table 7's last
// row): all 32 lines of each row hold data.
func IdealNoTagOverhead() IdealLOOption { return func(p *idealParams) { p.noTagOverhead = true } }

// NewIdealLO builds the ideal latency-optimized cache.
func NewIdealLO(capacityBytes uint64, stacked *dram.DRAM, opts ...IdealLOOption) (*IdealLO, error) {
	var p idealParams
	for _, o := range opts {
		o(&p)
	}
	linesPerRow := AlloyTADsPerRow
	name := "IDEAL-LO"
	if p.noTagOverhead {
		linesPerRow = stacked.Config().LinesPerRow()
		name = "IDEAL-LO+NoTagOverhead"
	}
	rows := capacityBytes / uint64(stacked.Config().RowBytes)
	if rows == 0 {
		return nil, fmt.Errorf("dramcache: capacity %d smaller than one row", capacityBytes)
	}
	tags, err := cache.New(cache.Config{Sets: int(rows) * linesPerRow, Assoc: 1, Policy: "lru"})
	if err != nil {
		return nil, err
	}
	d := &IdealLO{setsPerRow: linesPerRow, name: name}
	d.tags = tags
	d.stacked = stacked
	return d, nil
}

// Name implements Organization.
func (d *IdealLO) Name() string { return d.name }

// CapacityBytes implements Organization.
func (d *IdealLO) CapacityBytes() uint64 {
	return uint64(d.tags.Config().Lines()) * memaddr.LineSizeBytes
}

func (d *IdealLO) rowOf(set int) uint64 { return uint64(set / d.setsPerRow) }

// Access implements Organization. The outcome is known immediately; hits
// transfer exactly one line; misses consume no DRAM-cache bandwidth.
func (d *IdealLO) Access(now Cycle, line memaddr.Line, write bool) AccessResult {
	var r AccessResult
	d.AccessInto(now, line, write, &r)
	return r
}

// AccessInto implements Organization; see Access for the flow.
//
//alloyvet:hotpath
func (d *IdealLO) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	*r = AccessResult{}
	r.TagKnown = now
	set := d.tags.SetOf(line)
	var hit bool
	var ev cache.Eviction
	if write {
		hit = d.tags.Probe(line, true)
	} else {
		hit, ev = d.tags.Access(line, false)
	}
	if hit {
		d.stacked.AccessRowInto(now, d.rowOf(set), d.stacked.BurstLine(), write, &r.First)
		r.Hit, r.DataReady, r.RowHit = true, r.First.Done, r.First.RowHit
		r.Probed = true
	} else if !write {
		r.Victim, r.Allocated = ev, true
	}
	d.observe(r, now)
}

// Fill implements Organization: one line write.
func (d *IdealLO) Fill(now Cycle, line memaddr.Line) FillResult {
	res := d.stacked.AccessRow(now, d.rowOf(d.tags.SetOf(line)), d.stacked.BurstLine(), true)
	return FillResult{Done: res.Done}
}
