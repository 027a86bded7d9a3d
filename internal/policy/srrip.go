package policy

// SRRIP is Static Re-Reference Interval Prediction (Jaleel et al., ISCA
// 2010; the RRIP family also underlies SHiP, which the paper cites for
// high-performance caching). Each line carries a 2-bit re-reference
// prediction value (RRPV): fills insert at "long" (RRPV 2), hits promote
// to "near-immediate" (RRPV 0), and the victim is the first line at
// "distant" (RRPV 3), aging the whole set when none exists. SRRIP is
// scan-resistant like BIP but keeps LRU-like behavior for reused lines,
// making it a useful comparison point in replacement ablations.
type SRRIP struct {
	assoc int
	rrpv  []uint8
}

// rrpvBits is the RRPV width (2 bits: values 0..3).
const rrpvBits = 2
const rrpvMax = 1<<rrpvBits - 1 // 3: predicted distant re-reference
const rrpvLong = rrpvMax - 1    // 2: insertion point

// NewSRRIP creates an SRRIP policy for sets x assoc lines.
func NewSRRIP(sets, assoc int) *SRRIP {
	p := &SRRIP{assoc: assoc, rrpv: make([]uint8, sets*assoc)}
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
	return p
}

// Name implements Policy.
func (p *SRRIP) Name() string { return "srrip" }

// CopyFrom implements Policy.
func (p *SRRIP) CopyFrom(src Policy) { p.copyFrom(src.(*SRRIP)) }

func (p *SRRIP) copyFrom(s *SRRIP) {
	p.assoc = s.assoc
	p.rrpv = append(p.rrpv[:0], s.rrpv...)
}

// Touch implements Policy: a hit predicts near-immediate re-reference.
func (p *SRRIP) Touch(set, way int) { p.rrpv[set*p.assoc+way] = 0 }

// Insert implements Policy: fills are predicted "long" so scans age out
// before disturbing the reused working set.
func (p *SRRIP) Insert(set, way int) { p.rrpv[set*p.assoc+way] = rrpvLong }

// Miss implements Policy.
func (p *SRRIP) Miss(int) {}

// Victim implements Policy: evict the first distant line, aging the set
// until one exists.
func (p *SRRIP) Victim(set int) int {
	base := set * p.assoc
	for {
		for w := 0; w < p.assoc; w++ {
			if p.rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := 0; w < p.assoc; w++ {
			p.rrpv[base+w]++
		}
	}
}
