// Package trace generates the synthetic memory reference streams that stand
// in for the paper's SPEC CPU2006 SimPoint slices (see DESIGN.md §2 for the
// substitution rationale). Each workload profile models the aggregate
// properties the DRAM-cache study depends on:
//
//   - memory intensity (instruction gap between L3 accesses → MPKI),
//   - footprint (region sizes → cache pressure),
//   - spatial locality (streaming/strided vs pointer-chasing components →
//     off-chip row-buffer behavior, the X/Y split of Figure 3),
//   - temporal locality (hot-region components → DRAM-cache hit rates),
//   - PC-to-behavior correlation (each component issues from its own small
//     set of instruction addresses, which is exactly the structure MAP-I
//     exploits), and
//   - phase behavior (components run in bursts, which is what MAP-G's
//     global history exploits).
//
// Generators are deterministic: the same profile, seed, and scale produce
// the same stream on every run and platform.
package trace

import (
	"fmt"

	"alloysim/internal/memaddr"
)

// Ref is one memory reference arriving at the L3: a demand load or store
// from the core side (an L2 miss, in the paper's hierarchy).
type Ref struct {
	PC    uint64       // address of the memory instruction
	Line  memaddr.Line // referenced line
	Write bool
	Gap   uint32 // non-memory instructions executed since the previous Ref
}

// Generator produces an infinite deterministic reference stream.
type Generator interface {
	Next() Ref
}

// Kind selects a component's address pattern.
type Kind int

// Component address patterns.
const (
	// Stream walks the region sequentially, one line at a time. High
	// spatial locality: dense row-buffer hits off-chip and in the Alloy
	// Cache's 28-sets-per-row layout.
	Stream Kind = iota
	// Stride walks the region with a fixed line stride (large numeric
	// codes, stencils). Moderate spatial locality.
	Stride
	// Rand touches uniformly random lines in the region (pointer chasing
	// when the region is large; a hot working set when it is small).
	Rand
)

func (k Kind) String() string {
	switch k {
	case Stream:
		return "stream"
	case Stride:
		return "stride"
	case Rand:
		return "rand"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Component is one access pattern within a workload.
type Component struct {
	Kind        Kind
	Weight      float64 // relative share of references
	RegionLines uint64  // unscaled region size in lines (full paper-scale)
	StrideLines uint64  // for Stride
	PCs         int     // number of distinct instruction addresses used
	WriteFrac   float64 // fraction of this component's refs that are writes
	// PageRun gives Rand accesses page-level spatial locality: after
	// jumping to a random target the component walks ~PageRun consecutive
	// lines before jumping again (objects and records span multiple
	// lines). This is what gives cache-missing traffic its off-chip
	// row-buffer hits — the paper's type-X accesses. Zero or one means
	// every reference jumps.
	PageRun int
	// Skew makes a Rand component behave like a set of data structures of
	// very different access frequencies: the region is partitioned into
	// PCs subranges, each owned by one instruction address, and a
	// reference picks subrange k with probability concentrated toward
	// k=0 (selection = PCs * u^Skew for uniform u). Frequently accessed
	// subranges stay cache-resident while rare ones do not, which yields
	// the concave capacity curves of real workloads and the strong
	// PC-to-hit/miss correlation that MAP-I exploits. Zero or one means
	// uniform access over the whole region with rotating PCs.
	Skew float64
}

// Profile describes one rate-mode benchmark copy.
type Profile struct {
	Name string

	// Paper-reported characteristics (Table 3), retained for reporting.
	PaperMPKI        float64
	PaperFootprintMB float64
	PaperPerfL3      float64 // perfect-L3 speedup ("Perfect-L3 Speedup")

	GapMean   uint32 // mean instruction gap between refs
	BurstMean int    // mean refs per component burst (phase length)

	// NoV2P disables the page-granular virtual-to-physical scatter
	// (memaddr.PageScatter) applied to emitted lines. Only tests that
	// need raw contiguous physical addresses should set it.
	NoV2P bool

	Components []Component
}

// Validate reports profile construction errors.
func (p Profile) Validate() error {
	if len(p.Components) == 0 {
		return fmt.Errorf("trace: profile %q has no components", p.Name)
	}
	var totalW float64
	for i, c := range p.Components {
		if c.Weight <= 0 {
			return fmt.Errorf("trace: profile %q component %d has non-positive weight", p.Name, i)
		}
		if c.RegionLines == 0 {
			return fmt.Errorf("trace: profile %q component %d has empty region", p.Name, i)
		}
		if c.Kind == Stride && c.StrideLines == 0 {
			return fmt.Errorf("trace: profile %q component %d: stride of zero", p.Name, i)
		}
		if c.PCs <= 0 {
			return fmt.Errorf("trace: profile %q component %d has no PCs", p.Name, i)
		}
		totalW += c.Weight
	}
	if totalW <= 0 {
		return fmt.Errorf("trace: profile %q has zero total weight", p.Name)
	}
	return nil
}

// FootprintLines returns the total unscaled region size in lines.
func (p Profile) FootprintLines() uint64 {
	var total uint64
	for _, c := range p.Components {
		total += c.RegionLines
	}
	return total
}

// powFast computes u^k for the skew transform, special-casing small
// integer exponents to keep Next() allocation- and libm-free on the hot
// path.
func powFast(u, k float64) float64 {
	switch k {
	case 2:
		return u * u
	case 3:
		return u * u * u
	case 4:
		uu := u * u
		return uu * uu
	}
	// Integer-exponent fallback by squaring; fractional parts are rare in
	// profiles and rounded down.
	result := 1.0
	n := int(k)
	for i := 0; i < n; i++ {
		result *= u
	}
	return result
}

// rng is a xorshift64* PRNG; deterministic and allocation-free.
type rng struct{ state uint64 }

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return rng{state: seed}
}

func (r *rng) next() uint64 {
	r.state ^= r.state >> 12
	r.state ^= r.state << 25
	r.state ^= r.state >> 27
	return r.state * 0x2545f4914f6cdd1d
}

// n returns a value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// float returns a value in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

type compState struct {
	Component
	base   memaddr.Line // first line of this component's region
	lines  uint64       // scaled region size
	pos    uint64       // cursor for Stream/Stride
	pcBase uint64

	// Rand page-run state: remaining lines in the current run, the
	// current offset, and the PC owning the run.
	runLeft int
	runOff  uint64
	runPC   int
}

// gen implements Generator for a Profile.
type gen struct {
	profile Profile
	comps   []compState
	weights []float64 // cumulative
	rng     rng

	cur       int // active component
	burstLeft int
	pcCursor  int
}

// Build instantiates a generator for one copy of the workload.
//
// scale divides every component region (footprint scaling; see DESIGN.md:
// the default experiments run at 1/64 of paper scale with the cache scaled
// identically). base offsets all lines, implementing the paper's
// virtual-to-physical mapping that keeps rate-mode copies disjoint.
// seed varies the stream between copies.
func (p Profile) Build(seed, scale uint64, base memaddr.Line) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if scale == 0 {
		scale = 1
	}
	g := &gen{
		profile: p, rng: newRNG(seed),
		comps:   make([]compState, 0, len(p.Components)),
		weights: make([]float64, 0, len(p.Components)),
	}
	next := base
	var cum float64
	for i, c := range p.Components {
		lines := c.RegionLines / scale
		if lines == 0 {
			lines = 1
		}
		cs := compState{
			Component: c,
			base:      next,
			lines:     lines,
			// Component i's PCs occupy a distinct 64-entry block of the
			// folded-XOR index space, so loads from different components
			// never alias in a 256-entry MACT (as distinct static loads
			// rarely do in practice).
			pcBase: 0x400000000000 + uint64(i)<<6,
		}
		if c.Kind == Stride {
			cs.StrideLines = c.StrideLines
			if cs.StrideLines >= lines {
				cs.StrideLines = 1
			}
		}
		g.comps = append(g.comps, cs)
		next += memaddr.Line(lines)
		cum += c.Weight
		g.weights = append(g.weights, cum)
	}
	g.pickComponent()
	return g, nil
}

// MustBuild is Build but panics on error.
func (p Profile) MustBuild(seed, scale uint64, base memaddr.Line) Generator {
	g, err := p.Build(seed, scale, base)
	if err != nil {
		panic(err)
	}
	return g
}

// Clone returns an independent copy of a profile-built generator (Build):
// the copy emits exactly the references the original emits next, and
// advancing either leaves the other unchanged. Any other Generator, such
// as a file Replay, reports false.
func Clone(g Generator) (Generator, bool) {
	c := new(gen)
	if !Copy(c, g) {
		return nil, false
	}
	return c, true
}

// Copy makes dst continue exactly as src: dst then emits the references
// src emits next, and advancing either leaves the other unchanged. It
// copies the component cursors, page-run state, RNG and burst counters
// into dst's own component array, and shares src's profile and cumulative
// weights, which never change after Build, so a copy between generators of
// one profile allocates nothing. Both must be profile-built (Build);
// otherwise Copy reports false and leaves dst unchanged.
func Copy(dst, src Generator) bool {
	d, ok := dst.(*gen)
	s, ok2 := src.(*gen)
	if !ok || !ok2 {
		return false
	}
	comps := d.comps
	*d = *s
	d.comps = append(comps[:0], s.comps...)
	return true
}

func (g *gen) pickComponent() {
	total := g.weights[len(g.weights)-1]
	x := g.rng.float() * total
	g.cur = len(g.comps) - 1
	for i, w := range g.weights {
		if x < w {
			g.cur = i
			break
		}
	}
	mean := g.profile.BurstMean
	if mean < 1 {
		mean = 1
	}
	g.burstLeft = 1 + int(g.rng.intn(uint64(2*mean)))
}

// Next implements Generator.
func (g *gen) Next() Ref {
	if g.burstLeft <= 0 {
		g.pickComponent()
	}
	g.burstLeft--
	c := &g.comps[g.cur]

	var off uint64
	pcIdx := -1 // -1: rotate PCs; otherwise the subrange's owner
	switch c.Kind {
	case Stream:
		off = c.pos
		c.pos++
		if c.pos >= c.lines {
			c.pos = 0
		}
	case Stride:
		off = c.pos
		c.pos += c.StrideLines
		if c.pos >= c.lines {
			c.pos %= c.lines
			// Nudge by one so successive sweeps touch new lines.
			c.pos = (c.pos + 1) % c.lines
		}
	case Rand:
		if c.runLeft > 0 {
			// Continue the current spatial run.
			c.runLeft--
			c.runOff++
			if c.runOff >= c.lines {
				c.runOff = 0
			}
			off = c.runOff
			pcIdx = c.runPC
			break
		}
		if c.Skew > 1 && c.PCs > 1 {
			// Zipf-like subrange selection: subrange k belongs to PC k
			// and is accessed with frequency concentrated toward k=0.
			k := uint64(float64(c.PCs) * powFast(g.rng.float(), c.Skew))
			if k >= uint64(c.PCs) {
				k = uint64(c.PCs) - 1
			}
			sub := c.lines / uint64(c.PCs)
			if sub == 0 {
				sub = 1
			}
			off = k * sub
			if off >= c.lines {
				off = c.lines - 1
			}
			off += g.rng.intn(sub)
			if off >= c.lines {
				off = c.lines - 1
			}
			pcIdx = int(k)
		} else {
			off = g.rng.intn(c.lines)
		}
		if c.PageRun > 1 {
			c.runLeft = int(g.rng.intn(uint64(2*c.PageRun - 1))) // 0..2R-2, mean R-1
			c.runOff = off
			if pcIdx >= 0 {
				c.runPC = pcIdx
			} else {
				c.runPC = g.pcCursor % c.PCs
				pcIdx = c.runPC
			}
		}
	}

	g.pcCursor++
	if pcIdx < 0 {
		pcIdx = g.pcCursor % c.PCs
	}
	pc := c.pcBase + uint64(pcIdx)*4

	gapMean := uint64(g.profile.GapMean)
	var gap uint32
	if gapMean > 0 {
		gap = uint32(g.rng.intn(2*gapMean + 1))
	}

	line := c.base + memaddr.Line(off)
	if !g.profile.NoV2P {
		line = memaddr.PageScatter(line)
	}
	return Ref{
		PC:    pc,
		Line:  line,
		Write: g.rng.float() < c.WriteFrac,
		Gap:   gap,
	}
}
