package dramcache

import (
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/dram"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
)

// TDRAM models a tag-enhanced stacked DRAM (Babaie et al., HPCA 2024): the
// die stores a tag alongside each line and returns it on a narrow
// dedicated path in parallel with the data burst. Like Alloy it is
// direct-mapped with no tag serialization, but it pays none of Alloy's
// 72 B TAD tax: a hit moves exactly one 64 B line on the data bus, and the
// hit/miss outcome is known one tag-check after the column access
// completes — before the data burst finishes — so misses dispatch to
// off-chip memory earlier than Alloy's post-burst resolution.
//
// Capacity matches Alloy's 28-lines-per-row geometry: the per-line tag
// bits still occupy die area, so the comparison against Alloy isolates
// the dedicated tag path (latency and bus occupancy), not a capacity win.
type TDRAM struct {
	base
	setsPerRow int
}

// NewTDRAM builds a tag-enhanced DRAM cache of the given capacity.
func NewTDRAM(capacityBytes uint64, stacked *dram.DRAM) (*TDRAM, error) {
	rows := capacityBytes / uint64(stacked.Config().RowBytes)
	if rows == 0 {
		return nil, fmt.Errorf("dramcache: capacity %d smaller than one row", capacityBytes)
	}
	sets := int(rows) * AlloyTADsPerRow
	tags, err := cache.New(cache.Config{Sets: sets, Assoc: 1, Policy: "lru"})
	if err != nil {
		return nil, err
	}
	t := &TDRAM{setsPerRow: AlloyTADsPerRow}
	t.tags = tags
	t.stacked = stacked
	return t, nil
}

// Name implements Organization.
func (t *TDRAM) Name() string { return "TDRAM" }

// CapacityBytes implements Organization.
func (t *TDRAM) CapacityBytes() uint64 {
	return uint64(t.tags.Config().Lines()) * memaddr.LineSizeBytes
}

//alloyvet:hotpath
func (t *TDRAM) rowOf(set int) uint64 { return uint64(set / t.setsPerRow) }

// checkRow asserts tag/data co-residency: the dedicated tag path returns
// the tag of the very row/column the data access targets, so every DRAM
// access for a line must hit the row holding the line's set. The expected
// row is recomputed from the 28-lines-per-row geometry independently of
// rowOf, mirroring Alloy's checkTAD.
func (t *TDRAM) checkRow(line memaddr.Line, set int, row uint64) {
	if got := t.tags.SetOf(line); got != set {
		invariants.Failf("dramcache: TDRAM line %d accessed via set %d but maps to set %d", line, set, got)
	}
	if want := uint64(set / AlloyTADsPerRow); row != want {
		invariants.Failf("dramcache: TDRAM tag/data co-residency broken: set %d lives in row %d, accessed row %d", set, want, row)
	}
}

// Access implements Organization: one line-sized DRAM access; the tag
// arrives on the dedicated path with the first data beat, so the outcome
// is known at CAS completion plus one tag-check cycle — while the data is
// still bursting. Consecutive sets share rows as in Alloy, preserving the
// row-buffer locality pillar.
func (t *TDRAM) Access(now Cycle, line memaddr.Line, write bool) AccessResult {
	var r AccessResult
	t.AccessInto(now, line, write, &r)
	return r
}

// AccessInto implements Organization; see Access for the flow.
//
//alloyvet:hotpath
func (t *TDRAM) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	set := t.tags.SetOf(line)
	row := t.rowOf(set)
	if invariants.Enabled {
		t.checkRow(line, set, row)
	}

	*r = AccessResult{}
	if write {
		// The tag path answers a one-beat probe without streaming the
		// line; a hit then writes the updated data back (row open).
		t.stacked.AccessRowInto(now, row, 1, false, &r.First)
		r.TagKnown = r.First.CASDone + TagCheckCycles
		r.RowHit = r.First.RowHit
		r.Probed = true
		if t.tags.Probe(line, true) {
			var wr dram.Result
			t.stacked.AccessRowInto(r.TagKnown, row, t.stacked.BurstLine(), true, &wr)
			r.Hit, r.DataReady = true, wr.Done
		}
		t.observe(r, now)
		return
	}

	t.stacked.AccessRowInto(now, row, t.stacked.BurstLine(), false, &r.First)
	// Dedicated tag path: the outcome resolves with the column access, not
	// after the burst drains (Alloy learns it only at First.Done).
	r.TagKnown = r.First.CASDone + TagCheckCycles
	r.RowHit = r.First.RowHit
	r.Probed = true
	hit, ev := t.tags.Access(line, false)
	if hit {
		r.Hit, r.DataReady = true, r.First.Done
	} else {
		r.Victim, r.Allocated = ev, true
	}
	t.observe(r, now)
}

// Fill implements Organization: one line-sized write; the tag rides the
// dedicated path for free.
func (t *TDRAM) Fill(now Cycle, line memaddr.Line) FillResult {
	set := t.tags.SetOf(line)
	row := t.rowOf(set)
	if invariants.Enabled {
		t.checkRow(line, set, row)
	}
	res := t.stacked.AccessRow(now, row, t.stacked.BurstLine(), true)
	return FillResult{Done: res.Done}
}
