package dramcache

import (
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
}

func newSRAMTag(b base) Organization { return &SRAMTag{b} }

// AccessInto implements Organization. The tag store resolves hit/miss after
// SRAMTagLatency cycles; a hit then reads the data line from the stacked
// DRAM; a read miss allocates and will be filled later.
//
//alloyvet:hotpath
func (s *SRAMTag) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	tagKnown := now + SRAMTagLatency
	set := s.tags.SetOf(line)
	*r = AccessResult{}
	r.TagKnown = tagKnown
	hit, ev := s.contents(line, write)
	if hit {
		// A write hit updates the line in place, a read hit reads it.
		s.stacked.AccessRowInto(tagKnown, s.rowOf(set), s.stacked.BurstLine(), write, &r.First)
		r.Hit, r.DataReady = true, r.First.Done
		r.Probed = true
	} else if !write {
		r.Victim, r.Allocated = ev, true
	}
	s.observe(r, now)
}

// Fill implements Organization: the SRAM tag update is free; the data
// write occupies the stacked DRAM for one line burst.
func (s *SRAMTag) Fill(now Cycle, line memaddr.Line) Cycle {
	return s.stacked.AccessRow(now, s.rowOf(s.tags.SetOf(line)), s.stacked.BurstLine(), true).Done
}
