package dramcache

import (
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
)

// SRAMTag models the impractical SRAM tag-store design of §2.1: tags live
// in a dedicated SRAM array (24 MB of SRAM for a 256 MB cache) probed in
// SRAMTagLatency cycles, and every hit then performs a stacked-DRAM data
// access. The 32-way configuration maps an entire set to one DRAM row, so
// sequentially addressed lines land in different rows and row-buffer
// locality is destroyed; the direct-mapped variant of Table 1 regains it.
type SRAMTag struct {
	base
	assoc       int
	setsPerRow  int
	linesPerRow int
	name        string
}

// NewSRAMTag builds an SRAM-Tag cache of the given capacity. assoc must be
// 32 (paper default, set-per-row) or 1 (Table 1's de-optimized variant).
func NewSRAMTag(capacityBytes uint64, assoc int, stacked *dram.DRAM) (*SRAMTag, error) {
	if assoc != 1 && assoc != 32 {
		return nil, fmt.Errorf("dramcache: SRAM-Tag supports assoc 1 or 32, got %d", assoc)
	}
	linesPerRow := stacked.Config().LinesPerRow() // 32 with 2 KB rows
	rows := capacityBytes / uint64(stacked.Config().RowBytes)
	if rows == 0 {
		return nil, fmt.Errorf("dramcache: capacity %d smaller than one row", capacityBytes)
	}
	sets := int(rows) * linesPerRow / assoc
	tags, err := cache.New(cache.Config{Sets: sets, Assoc: assoc, Policy: "dip"})
	if err != nil {
		return nil, err
	}
	s := &SRAMTag{
		assoc:       assoc,
		linesPerRow: linesPerRow,
		name:        fmt.Sprintf("SRAM-Tag (%d-way)", assoc),
	}
	s.tags = tags
	s.stacked = stacked
	if assoc == 32 {
		s.setsPerRow = 1 // whole set occupies the row
	} else {
		s.setsPerRow = linesPerRow // 32 consecutive sets per row
	}
	return s, nil
}

// Name implements Organization.
func (s *SRAMTag) Name() string { return s.name }

// CapacityBytes implements Organization.
func (s *SRAMTag) CapacityBytes() uint64 {
	return uint64(s.tags.Config().Lines()) * memaddr.LineSizeBytes
}

// rowOf maps a set index to the stacked-DRAM row holding it.
func (s *SRAMTag) rowOf(set int) uint64 { return uint64(set / s.setsPerRow) }

// Access implements Organization. The tag store resolves hit/miss after
// SRAMTagLatency cycles; a hit then reads the data line from the stacked
// DRAM; a read miss allocates and will be filled later.
func (s *SRAMTag) Access(now Cycle, line memaddr.Line, write bool) AccessResult {
	var r AccessResult
	s.AccessInto(now, line, write, &r)
	return r
}

// AccessInto implements Organization; see Access for the flow.
//
//alloyvet:hotpath
func (s *SRAMTag) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	tagKnown := now + SRAMTagLatency
	set := s.tags.SetOf(line)
	*r = AccessResult{}
	r.TagKnown = tagKnown
	if write {
		// Write: probe only; a hit updates the line in place, a miss is
		// forwarded to memory without allocating.
		if s.tags.Probe(line, true) {
			s.stacked.AccessRowInto(tagKnown, s.rowOf(set), s.stacked.BurstLine(), true, &r.First)
			r.Hit, r.DataReady, r.RowHit = true, r.First.Done, r.First.RowHit
			r.Probed = true
		}
		s.observe(r, now)
		return
	}
	hit, ev := s.tags.Access(line, false)
	if hit {
		s.stacked.AccessRowInto(tagKnown, s.rowOf(set), s.stacked.BurstLine(), false, &r.First)
		r.Hit, r.DataReady, r.RowHit = true, r.First.Done, r.First.RowHit
		r.Probed = true
	} else {
		r.Victim, r.Allocated = ev, true
	}
	s.observe(r, now)
}

// Fill implements Organization: the SRAM tag update is free; the data
// write occupies the stacked DRAM for one line burst.
func (s *SRAMTag) Fill(now Cycle, line memaddr.Line) FillResult {
	set := s.tags.SetOf(line)
	res := s.stacked.AccessRow(now, s.rowOf(set), s.stacked.BurstLine(), true)
	return FillResult{Done: res.Done}
}
