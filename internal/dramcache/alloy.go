package dramcache

import (
	"alloysim/internal/dram"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/sim"
)

// TADBytes is the size of one Tag-and-Data unit: 64 B data + 8 B tag
// (§4.1). TADs are stored contiguously, 28 per 2 KB row (32 B unused).
const TADBytes = 72

// AlloyTADsPerRow is the number of TADs in one 2 KB row.
const AlloyTADsPerRow = 28

// AlloyBurst is the default data-bus occupancy of one TAD access: five
// 16 B beats (80 B) on the stacked device's 16 B bus.
const AlloyBurst = 5

// Alloy is the paper's latency-optimized cache: a direct-mapped structure
// whose tag and data are fused into a single TAD streamed in one burst,
// eliminating tag serialization entirely. Because 28 consecutive sets
// share a DRAM row, sequential access streams enjoy row-buffer hits — the
// second pillar of its latency advantage.
type Alloy struct {
	base
	burst Cycle // one access's TADs: the TAD burst times the ways
}

// newAlloy returns the constructor of an Alloy Cache whose TAD takes
// burst bus cycles. The §6.5 ablation uses 8 (128 B, power-of-two DDR
// restriction) instead of AlloyBurst; the §6.7 two-way ablation streams
// both of a set's TADs from the same row.
func newAlloy(burst Cycle) func(base) Organization {
	return func(b base) Organization {
		return &Alloy{base: b, burst: burst * sim.Ticks(b.tags.Config().Assoc)}
	}
}

// checkTAD asserts tag/data co-residency: an Alloy set's tag and data live
// in the same TAD, so every DRAM access for a line must target the row
// that holds the line's set. The expected row is recomputed from the
// paper's geometry (28 TADs per 2 KB row, §4.1) independently of rowOf so
// a future refactor cannot silently break AccessInto and Fill in the same
// way.
func (a *Alloy) checkTAD(line memaddr.Line, set int, row uint64) {
	if got := a.tags.SetOf(line); got != set {
		invariants.Failf("dramcache: Alloy line %d accessed via set %d but maps to set %d", line, set, got)
	}
	want := uint64(set / (AlloyTADsPerRow / a.tags.Config().Assoc))
	if row != want {
		invariants.Failf("dramcache: Alloy tag/data co-residency broken: set %d lives in row %d, accessed row %d", set, want, row)
	}
}

// AccessInto implements Organization: one DRAM access streams the TAD; the
// tag arrives with the data, so the only serialization is the single-cycle
// tag check. Consecutive sets share rows, so streaming access patterns
// produce row-buffer hits (CAS + burst = 23 cycles instead of 41).
//
//alloyvet:hotpath
func (a *Alloy) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	set := a.tags.SetOf(line)
	row := a.rowOf(set)
	if invariants.Enabled {
		a.checkTAD(line, set, row)
	}

	*r = AccessResult{}
	a.stacked.AccessRowInto(now, row, a.burst, false, &r.First)
	r.TagKnown = r.First.Done + TagCheckCycles
	r.Probed = true

	hit, ev := a.contents(line, write)
	switch {
	case hit && write:
		// Write the updated data back into the TAD (row is open).
		var wr dram.Result
		a.stacked.AccessRowInto(r.TagKnown, row, a.stacked.BurstLine(), true, &wr)
		r.Hit, r.DataReady = true, wr.Done
	case hit:
		r.Hit, r.DataReady = true, r.First.Done
	case !write:
		r.Victim, r.Allocated = ev, true
	}
	a.observe(r, now)
}

// Fill implements Organization: installing a line writes one TAD burst.
// No victim-selection read is needed — the victim was identified by the
// demand access that streamed the TAD (the PAM path reads it regardless).
func (a *Alloy) Fill(now Cycle, line memaddr.Line) Cycle {
	set := a.tags.SetOf(line)
	row := a.rowOf(set)
	if invariants.Enabled {
		a.checkTAD(line, set, row)
	}
	return a.stacked.AccessRow(now, row, a.burst, true).Done
}
