package policy

// BRRIP is Bimodal RRIP (Jaleel et al., ISCA 2010): the RRIP analogue of
// BIP. Most fills insert at "distant" (RRPV 3, evicted soonest) and only
// 1 in brripEpsilon at "long" (RRPV 2), so a scan that never re-references
// its lines ages out without displacing the reused working set — stronger
// thrash protection than SRRIP's uniform long insertion, at the cost of
// slower warmup for genuinely reused lines. Hits promote to
// near-immediate and victims are selected exactly as in SRRIP.
type BRRIP struct {
	srrip   *SRRIP
	counter uint32
}

// brripEpsilon is the bimodal throttle: 1 of every brripEpsilon fills
// inserts at long instead of distant (mirrors BIP's Epsilon).
const brripEpsilon = 32

// NewBRRIP creates a BRRIP policy for sets x assoc lines.
func NewBRRIP(sets, assoc int) *BRRIP {
	return &BRRIP{srrip: NewSRRIP(sets, assoc)}
}

// Name implements Policy.
func (p *BRRIP) Name() string { return "brrip" }

// CopyFrom implements Policy.
func (p *BRRIP) CopyFrom(src Policy) {
	s := src.(*BRRIP)
	p.srrip.copyFrom(s.srrip)
	p.counter = s.counter
}

// Touch implements Policy: hits promote to near-immediate re-reference.
func (p *BRRIP) Touch(set, way int) { p.srrip.Touch(set, way) }

// Insert implements Policy: distant by default, long 1 in brripEpsilon.
func (p *BRRIP) Insert(set, way int) {
	p.counter++
	if p.counter%brripEpsilon == 0 {
		p.srrip.rrpv[set*p.srrip.assoc+way] = rrpvLong
		return
	}
	p.srrip.rrpv[set*p.srrip.assoc+way] = rrpvMax
}

// Miss implements Policy.
func (p *BRRIP) Miss(int) {}

// Victim implements Policy: first distant line, aging the set as needed.
func (p *BRRIP) Victim(set int) int { return p.srrip.Victim(set) }
