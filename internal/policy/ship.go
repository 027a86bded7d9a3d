package policy

// SHiP is Signature-based Hit Prediction (Wu et al., MICRO 2011) layered on
// RRIP. Each line remembers the signature that filled it and whether it was
// ever re-referenced; a table of saturating counters (the SHCT) learns, per
// signature, whether fills tend to be reused. Fills whose signature has a
// zero counter insert at distant (RRPV 3) and age out quickly; everything
// else inserts at long (RRPV 2) as in SRRIP. Without a PC stream the
// simulator signs fills by a hash of the set index, which distinguishes
// streaming regions from reused ones at page-ish granularity.
type SHiP struct {
	srrip  *SRRIP
	shct   []uint8  // indexed by signature
	sig    []uint16 // per line: signature that filled it
	reused []bool   // per line: re-referenced since fill
	filled []bool   // per line: holds a tracked fill
}

const (
	shctBits = 11 // 2048-entry predictor table
	shctMax  = 7  // 3-bit saturating counters
)

// NewSHiP creates a SHiP policy for sets x assoc lines.
func NewSHiP(sets, assoc int) *SHiP {
	n := sets * assoc
	p := &SHiP{
		srrip:  NewSRRIP(sets, assoc),
		shct:   make([]uint8, 1<<shctBits),
		sig:    make([]uint16, n),
		reused: make([]bool, n),
		filled: make([]bool, n),
	}
	// Start optimistic: unknown signatures insert at long until evictions
	// without reuse teach the table otherwise.
	for i := range p.shct {
		p.shct[i] = 1
	}
	return p
}

// Name implements Policy.
func (p *SHiP) Name() string { return "ship" }

// CopyFrom implements Policy.
func (p *SHiP) CopyFrom(src Policy) {
	s := src.(*SHiP)
	p.srrip.copyFrom(s.srrip)
	p.shct = append(p.shct[:0], s.shct...)
	p.sig = append(p.sig[:0], s.sig...)
	p.reused = append(p.reused[:0], s.reused...)
	p.filled = append(p.filled[:0], s.filled...)
}

// signature hashes the set index into the SHCT index space.
func (p *SHiP) signature(set int) uint16 {
	h := uint64(set) * 0x9e3779b97f4a7c15
	return uint16(h >> (64 - shctBits))
}

// Touch implements Policy: promote, and on the first reuse of a tracked
// fill train its signature toward "reused".
func (p *SHiP) Touch(set, way int) {
	p.srrip.Touch(set, way)
	idx := set*p.srrip.assoc + way
	if p.filled[idx] && !p.reused[idx] {
		p.reused[idx] = true
		if s := p.sig[idx]; p.shct[s] < shctMax {
			p.shct[s]++
		}
	}
}

// Insert implements Policy. The occupant being replaced trains the table
// first: a fill that was never re-referenced decrements its signature's
// counter. The new line then inserts at distant when its own signature's
// counter is zero (predicted dead on arrival), long otherwise.
func (p *SHiP) Insert(set, way int) {
	idx := set*p.srrip.assoc + way
	if p.filled[idx] && !p.reused[idx] {
		if s := p.sig[idx]; p.shct[s] > 0 {
			p.shct[s]--
		}
	}
	s := p.signature(set)
	p.sig[idx] = s
	p.reused[idx] = false
	p.filled[idx] = true
	if p.shct[s] == 0 {
		p.srrip.rrpv[idx] = rrpvMax
		return
	}
	p.srrip.rrpv[idx] = rrpvLong
}

// Miss implements Policy.
func (p *SHiP) Miss(int) {}

// Victim implements Policy: SRRIP's aging scan.
func (p *SHiP) Victim(set int) int { return p.srrip.Victim(set) }
