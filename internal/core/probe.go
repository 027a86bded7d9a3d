package core

import (
	"fmt"

	"alloysim/internal/dramcache"
	"alloysim/internal/memaddr"
	"alloysim/internal/sim"
)

// LatencyProbe drives single in-flight requests through a System's
// below-L3 read path against hand-primed cache contents and row-buffer
// state. It exists for differential validation (internal/validate): the
// paper's Figure 3 latencies are isolated-access numbers, which a full
// simulation can never reproduce exactly because neighboring requests
// perturb bank and bus availability. The probe bypasses the cores and the
// L3 entirely and calls the same readBelow path the simulation uses, so a
// measured latency is the simulator's own arithmetic, not a reimplementation.
type LatencyProbe struct {
	s   *System
	res dramcache.AccessResult // InstallLine's and TouchLine's, discarded
}

// Probe converts a freshly built System into a latency probe. It consumes
// the System the same way Run does: a probed System cannot also be run.
func (s *System) Probe() (*LatencyProbe, error) {
	if s.ran {
		return nil, fmt.Errorf("core: Probe on a System that already ran")
	}
	s.ran = true
	return &LatencyProbe{s: s}, nil
}

// InstallLine places a line into the DRAM-cache contents at time zero
// (allocate-on-miss, exactly like warmup), without touching off-chip
// state. Call ResetTiming afterwards to discard the timing side effects.
func (p *LatencyProbe) InstallLine(line memaddr.Line) {
	if p.s.org != nil {
		p.s.org.AccessInto(0, line, false, &p.res)
	}
}

// TouchLine re-reads an installed line at the given cycle, opening the
// stacked row that holds it.
func (p *LatencyProbe) TouchLine(now sim.Cycle, line memaddr.Line) {
	if p.s.org != nil {
		p.s.org.AccessInto(now, line, false, &p.res)
	}
}

// OpenMemRow reads the line from off-chip memory at the given cycle,
// leaving its row open (until the idle-close timeout).
func (p *LatencyProbe) OpenMemRow(now sim.Cycle, line memaddr.Line) {
	p.s.mem.AccessLine(now, line, false)
}

// ResetTiming closes every row and clears all bank, bus, and statistics
// state in both DRAMs, while keeping cache contents. It is the probe's
// analogue of the post-warmup reset: contents stay warm, clocks go cold.
func (p *LatencyProbe) ResetTiming() {
	p.s.mem.Reset()
	p.s.stacked.Reset()
	if p.s.org != nil {
		p.s.org.ResetStats()
	}
}

// Contains reports whether the DRAM cache holds the line (side-effect
// free). Always false for the baseline.
func (p *LatencyProbe) Contains(line memaddr.Line) bool {
	if p.s.org == nil {
		return false
	}
	return p.s.org.Contains(line)
}

// MemRowOpen reports whether the off-chip row holding the line is open.
func (p *LatencyProbe) MemRowOpen(line memaddr.Line) bool {
	return p.s.mem.PeekRowOpen(p.s.mem.RowOfLine(line))
}

// ReadBelow issues one demand read at the given cycle through the real
// readBelow path (predictor, organization, off-chip memory) and returns
// the end-to-end latency from issue to data arrival.
func (p *LatencyProbe) ReadBelow(now sim.Cycle, pc uint64, line memaddr.Line) sim.Cycle {
	return p.s.readBelow(now, 0, pc, line) - now
}
