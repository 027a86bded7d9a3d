package dramcache

import (
	"fmt"

	"alloysim/internal/cache"
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
	assoc      int
	setsPerRow int
	burst      Cycle
	name       string
}

// AlloyOption configures the Alloy Cache.
type AlloyOption func(*alloyParams)

type alloyParams struct {
	assoc int
	burst Cycle
}

// AlloyWithBurst overrides the TAD burst length in bus cycles. The §6.5
// ablation uses 8 (128 B, power-of-two DDR restriction) instead of 5.
func AlloyWithBurst(b Cycle) AlloyOption { return func(p *alloyParams) { p.burst = b } }

// AlloyWithAssoc selects 1 (default) or 2 ways. The §6.7 two-way ablation
// streams two TADs per access (double burst) from the same row.
func AlloyWithAssoc(a int) AlloyOption { return func(p *alloyParams) { p.assoc = a } }

// NewAlloy builds an Alloy Cache of the given capacity.
func NewAlloy(capacityBytes uint64, stacked *dram.DRAM, opts ...AlloyOption) (*Alloy, error) {
	p := alloyParams{assoc: 1, burst: AlloyBurst}
	for _, o := range opts {
		o(&p)
	}
	if p.assoc != 1 && p.assoc != 2 {
		return nil, fmt.Errorf("dramcache: Alloy supports assoc 1 or 2, got %d", p.assoc)
	}
	if p.burst == 0 {
		return nil, fmt.Errorf("dramcache: Alloy burst must be positive")
	}
	rows := capacityBytes / uint64(stacked.Config().RowBytes)
	if rows == 0 {
		return nil, fmt.Errorf("dramcache: capacity %d smaller than one row", capacityBytes)
	}
	sets := int(rows) * AlloyTADsPerRow / p.assoc
	tags, err := cache.New(cache.Config{Sets: sets, Assoc: p.assoc, Policy: "lru"})
	if err != nil {
		return nil, err
	}
	a := &Alloy{
		assoc:      p.assoc,
		setsPerRow: AlloyTADsPerRow / p.assoc,
		burst:      p.burst * sim.Ticks(p.assoc),
	}
	a.tags = tags
	a.stacked = stacked
	switch {
	case p.assoc == 2:
		a.name = "Alloy (2-way)"
	case p.burst != AlloyBurst:
		a.name = fmt.Sprintf("Alloy (burst-%d)", p.burst)
	default:
		a.name = "Alloy"
	}
	return a, nil
}

// Name implements Organization.
func (a *Alloy) Name() string { return a.name }

// CapacityBytes implements Organization.
func (a *Alloy) CapacityBytes() uint64 {
	return uint64(a.tags.Config().Lines()) * memaddr.LineSizeBytes
}

//alloyvet:hotpath
func (a *Alloy) rowOf(set int) uint64 { return uint64(set / a.setsPerRow) }

// checkTAD asserts tag/data co-residency: an Alloy set's tag and data live
// in the same TAD, so every DRAM access for a line must target the row
// that holds the line's set. The expected row is recomputed from the
// paper's geometry (28 TADs per 2 KB row, §4.1) independently of rowOf so
// a future refactor cannot silently break Access and Fill in the same way.
func (a *Alloy) checkTAD(line memaddr.Line, set int, row uint64) {
	if got := a.tags.SetOf(line); got != set {
		invariants.Failf("dramcache: Alloy line %d accessed via set %d but maps to set %d", line, set, got)
	}
	want := uint64(set / (AlloyTADsPerRow / a.assoc))
	if row != want {
		invariants.Failf("dramcache: Alloy tag/data co-residency broken: set %d lives in row %d, accessed row %d", set, want, row)
	}
}

// Access implements Organization: one DRAM access streams the TAD; the tag
// arrives with the data, so the only serialization is the single-cycle tag
// check. Consecutive sets share rows, so streaming access patterns produce
// row-buffer hits (CAS + burst = 23 cycles instead of 41).
//
//alloyvet:hotpath
func (a *Alloy) Access(now Cycle, line memaddr.Line, write bool) AccessResult {
	var r AccessResult
	a.AccessInto(now, line, write, &r)
	return r
}

// AccessInto implements Organization; see Access for the flow.
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
	r.RowHit = r.First.RowHit
	r.Probed = true

	var hit bool
	var ev cache.Eviction
	if write {
		hit = a.tags.Probe(line, true)
		if hit {
			// Write the updated data back into the TAD (row is open).
			var wr dram.Result
			a.stacked.AccessRowInto(r.TagKnown, row, a.stacked.BurstLine(), true, &wr)
			r.Hit, r.DataReady = true, wr.Done
		}
		a.observe(r, now)
		return
	}
	hit, ev = a.tags.Access(line, false)
	if hit {
		r.Hit, r.DataReady = true, r.First.Done
	} else {
		r.Victim, r.Allocated = ev, true
	}
	a.observe(r, now)
}

// Fill implements Organization: installing a line writes one TAD burst.
// No victim-selection read is needed — the victim was identified by the
// demand access that streamed the TAD (the PAM path reads it regardless).
func (a *Alloy) Fill(now Cycle, line memaddr.Line) FillResult {
	set := a.tags.SetOf(line)
	row := a.rowOf(set)
	if invariants.Enabled {
		a.checkTAD(line, set, row)
	}
	res := a.stacked.AccessRow(now, row, a.burst, true)
	return FillResult{Done: res.Done}
}
