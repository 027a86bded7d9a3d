// Package policy implements the cache replacement policies the paper's
// designs use: LRU, Random, BIP, and DIP (LRU/BIP set dueling, Qureshi et
// al., ISCA 2007), plus the RRIP family (SRRIP, BRRIP, and a SHiP-style
// signature predictor) used by the design-zoo organizations. The baseline
// L3 and the set-associative DRAM cache configurations use LRU-based DIP;
// the de-optimized LH-Cache variant in Table 1 uses Random; direct-mapped
// configurations need no policy at all.
package policy

import (
	"fmt"
	"math"
	"slices"

	"alloysim/internal/invariants"
)

// Policy tracks replacement metadata for a cache of Sets x Assoc lines.
// Way indices are dense in [0, Assoc).
type Policy interface {
	// Touch records a hit on the given way.
	Touch(set, way int)
	// Insert records a fill into the given way.
	Insert(set, way int)
	// Victim returns the way to evict from a full set.
	Victim(set int) int
	// Miss informs the policy that an access to the set missed. DIP uses
	// this for set dueling; other policies ignore it.
	Miss(set int)
	// Name identifies the policy in reports.
	Name() string
	// CopyFrom overwrites the policy's replacement state with a copy of
	// src's, in place: the policy then makes the decisions src makes for
	// the same operations, and neither observes the other's later
	// operations. src must be the same policy; a copy between policies of
	// one geometry allocates nothing.
	CopyFrom(src Policy)
}

// New constructs a policy by name: "lru", "random", "bip", "dip", "nru",
// "srrip", "brrip", or "ship". Stochastic policies get the legacy fixed
// seed; use NewSeeded when distinct configurations must not share one
// eviction sequence.
func New(name string, sets, assoc int) (Policy, error) {
	return NewSeeded(name, sets, assoc, 0)
}

// NewSeeded is New with an explicit seed for stochastic policies
// ("random"; the deterministic policies ignore it). Seed 0 selects the
// legacy fixed seed New has always used, so existing configurations keep
// their eviction sequences; callers cross-producting designs and policies
// pass a per-(design, policy) seed to decorrelate runs.
func NewSeeded(name string, sets, assoc int, seed uint64) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(sets, assoc), nil
	case "srrip":
		return NewSRRIP(sets, assoc), nil
	case "brrip":
		return NewBRRIP(sets, assoc), nil
	case "ship":
		return NewSHiP(sets, assoc), nil
	case "random":
		if seed == 0 {
			seed = 1
		}
		return NewRandom(sets, assoc, seed), nil
	case "bip":
		return NewBIP(sets, assoc), nil
	case "dip":
		return NewDIP(sets, assoc), nil
	case "nru":
		return NewNRU(sets, assoc), nil
	}
	return nil, unknown(name)
}

// Known lists every policy name New accepts, in a stable order.
func Known() []string {
	return []string{"lru", "random", "bip", "dip", "nru", "srrip", "brrip", "ship"}
}

// Check reports the error New would return for the name, without building
// a policy.
func Check(name string) error {
	if slices.Contains(Known(), name) {
		return nil
	}
	return unknown(name)
}

func unknown(name string) error { return fmt.Errorf("policy: unknown policy %q", name) }

// LRU is true least-recently-used replacement using per-line stamps.
//
// Stamps are 32 bits wide. The clock ticks at most once per access to its
// cache, and the busiest cache any run of this repository makes (the
// benchmark's gobmk-light L3) sees about 3.3M accesses, about 1,300 times
// fewer than the 2^32-1 ticks a clock can take. No renormalisation could
// stand in for a wider stamp: BIP inserts at max(min-1, 0), so how far a
// stamp sits above 0 decides later ties. So a clock that would pass 2^32-1
// panics instead (tick), and every stamp a run writes equals the one a
// 64-bit clock would.
//
// Each set also keeps its least entry: the row's least stamp and the
// first way holding it, which is the victim and the stamp BIP's insertion
// goes below. Every stamp write keeps the entry exact (write): a lower
// stamp, or an equal one at a lower way, takes it over, and a higher stamp
// written over the entry's way marks the set unknown, so only the next
// Victim or insertAtLRU of that set rescans its row. A fill with LRU
// insertion overwrites the victim with a higher stamp, but a BIP insertion
// keeps the entry and a hit seldom lands on the least-recent way, so one
// Fig 9 sweep rescans 13M times in 79M lookups. Since the entry holds the
// stamp too, no write and no BIP insertion reads the row itself.
type LRU struct {
	assoc  int
	clock  uint32
	stamps []uint32 // sets*assoc, 0 = never used
	least  []uint64 // per set: least(stamp, way) of its row, or noLeast
}

// noLeast marks a set whose least entry is not known. Its way byte, 0xff,
// is no way's.
const noLeast = math.MaxUint64

// least packs a stamp and a way into a set's least entry; the lower of two
// entries is the lower stamp, and of equal stamps the lower way.
func least(s uint32, way int) uint64 { return uint64(s)<<8 | uint64(way) }

// NewLRU creates an LRU policy for sets x assoc lines, assoc below 255
// (an entry keeps the way in one byte; a cache has at most 64 ways).
// Every stamp starts at 0, so every set's least entry starts as
// least(0, 0), the zero value.
func NewLRU(sets, assoc int) *LRU {
	return &LRU{assoc: assoc, stamps: make([]uint32, sets*assoc), least: make([]uint64, sets)}
}

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// CopyFrom implements Policy.
func (p *LRU) CopyFrom(src Policy) { p.copyFrom(src.(*LRU)) }

func (p *LRU) copyFrom(s *LRU) {
	p.assoc, p.clock = s.assoc, s.clock
	p.stamps = append(p.stamps[:0], s.stamps...)
	p.least = append(p.least[:0], s.least...)
}

// row returns the set's stamps.
func (p *LRU) row(set int) []uint32 {
	base := set * p.assoc
	return p.stamps[base : base+p.assoc]
}

// write stamps a way of the set's row, keeping the set's least entry
// exact.
func (p *LRU) write(set, way int, s uint32) {
	if e := p.least[set]; e != noLeast {
		if n := least(s, way); n < e {
			p.least[set] = n
		} else if uint8(e) == uint8(way) && n != e {
			p.least[set] = noLeast
		}
	}
	p.row(set)[way] = s
}

// leastOf returns the set's least entry, rescanning its row when the
// entry is unknown.
func (p *LRU) leastOf(set int) uint64 {
	e := p.least[set]
	if e == noLeast {
		e = rescan(p.row(set))
		p.least[set] = e
	} else if invariants.Enabled {
		checkLeast(set, p.row(set), e)
	}
	return e
}

// rescan returns a row's least entry.
func rescan(row []uint32) uint64 {
	e := uint64(noLeast)
	for w, s := range row {
		e = min(e, least(s, w))
	}
	return e
}

// checkLeast asserts that a set's least entry is the one a rescan of its
// row finds. Only meaningful under -tags invariants.
func checkLeast(set int, row []uint32, e uint64) {
	if want := rescan(row); e != want {
		invariants.Failf("policy: LRU set %d records way %d at stamp %d as its least, a rescan finds way %d at %d (stamps %v)",
			set, uint8(e), e>>8, uint8(want), want>>8, row)
	}
}

// Touch implements Policy.
func (p *LRU) Touch(set, way int) {
	p.tick()
	p.write(set, way, p.clock)
}

// tick advances the clock, refusing to wrap it. Its panic takes a
// constant message, which keeps tick inlinable; a call to a formatting
// helper would not be.
func (p *LRU) tick() {
	if p.clock == math.MaxUint32 {
		panic("policy: LRU clock reached the 32-bit stamp limit of 2^32-1 ticks")
	}
	p.clock++
}

// Insert implements Policy. LRU inserts at MRU position.
func (p *LRU) Insert(set, way int) { p.Touch(set, way) }

// Miss implements Policy.
func (p *LRU) Miss(int) {}

// Victim implements Policy.
func (p *LRU) Victim(set int) int { return int(uint8(p.leastOf(set))) }

// insertAtLRU marks the way as least recently used (BIP's default insert):
// one below the row's least stamp, clamped at 0, where a tie goes to the
// lower way.
func (p *LRU) insertAtLRU(set, way int) {
	e := p.leastOf(set)
	s := uint32(e >> 8)
	if s > 0 {
		s--
	}
	p.least[set] = min(e, least(s, way))
	p.row(set)[way] = s
}

// Random picks victims with a deterministic xorshift64* generator, so runs
// are reproducible. The Table 1 "LH-Cache + Rand Repl" variant uses this.
type Random struct {
	assoc int
	state uint64
}

// NewRandom creates a random-replacement policy with the given seed.
func NewRandom(sets, assoc int, seed uint64) *Random {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Random{assoc: assoc, state: seed}
}

// Name implements Policy.
func (p *Random) Name() string { return "random" }

// CopyFrom implements Policy: the copy continues the same victim sequence.
func (p *Random) CopyFrom(src Policy) { *p = *src.(*Random) }

// Touch implements Policy; random replacement keeps no recency state.
func (p *Random) Touch(int, int) {}

// Insert implements Policy.
func (p *Random) Insert(int, int) {}

// Miss implements Policy.
func (p *Random) Miss(int) {}

// Victim implements Policy.
func (p *Random) Victim(set int) int {
	p.state ^= p.state >> 12
	p.state ^= p.state << 25
	p.state ^= p.state >> 27
	return int((p.state * 0x2545f4914f6cdd1d) >> 33 % uint64(p.assoc))
}

// BIP is bimodal insertion: fills go to the LRU position except for 1 in
// Epsilon fills, which go to MRU. Hits promote to MRU as in LRU.
type BIP struct {
	lru     *LRU
	counter uint32
}

// Epsilon is BIP's bimodal throttle: 1 of every Epsilon fills inserts at MRU.
const Epsilon = 32

// NewBIP creates a BIP policy.
func NewBIP(sets, assoc int) *BIP {
	return &BIP{lru: NewLRU(sets, assoc)}
}

// Name implements Policy.
func (p *BIP) Name() string { return "bip" }

// CopyFrom implements Policy.
func (p *BIP) CopyFrom(src Policy) { p.copyFrom(src.(*BIP)) }

func (p *BIP) copyFrom(s *BIP) {
	p.lru.copyFrom(s.lru)
	p.counter = s.counter
}

// Touch implements Policy.
func (p *BIP) Touch(set, way int) { p.lru.Touch(set, way) }

// Insert implements Policy.
func (p *BIP) Insert(set, way int) {
	p.counter++
	if p.counter%Epsilon == 0 {
		p.lru.Touch(set, way) // occasional MRU insert
		return
	}
	p.lru.insertAtLRU(set, way)
}

// Miss implements Policy.
func (p *BIP) Miss(int) {}

// Victim implements Policy.
func (p *BIP) Victim(set int) int { return p.lru.Victim(set) }

// DIP adaptively chooses between LRU and BIP insertion using set dueling:
// every dedicationStride-th set is dedicated to LRU, the next to BIP, and
// misses in dedicated sets steer a saturating PSEL counter that decides the
// policy for all follower sets.
//
// DIP keeps two recency rows per set, each stamped from its own clock: its
// LRU's row, whose minimum is the victim, and its BIP's row, whose minimum
// places a BIP (LRU-position) insertion. A fill stamps the row of the
// insertion policy in force and copies that stamp into the other row, so
// the rows exchange values on every fill while the two clocks drift apart.
// Victim choice depends on both clocks: one shared clock would evict
// differently.
type DIP struct {
	lru  *LRU
	bip  *BIP
	psel int32
	max  int32
	sets int
}

const dedicationStride = 32

// NewDIP creates a DIP policy with a 10-bit PSEL.
func NewDIP(sets, assoc int) *DIP {
	return &DIP{
		lru:  NewLRU(sets, assoc),
		bip:  NewBIP(sets, assoc),
		psel: 512, // neutral start; dueling moves it
		max:  1023,
		sets: sets,
	}
}

// Name implements Policy.
func (p *DIP) Name() string { return "dip" }

// CopyFrom implements Policy.
func (p *DIP) CopyFrom(src Policy) {
	s := src.(*DIP)
	p.lru.copyFrom(s.lru)
	p.bip.copyFrom(s.bip)
	p.psel, p.max, p.sets = s.psel, s.max, s.sets
}

// setKind classifies a set: 0 = LRU-dedicated, 1 = BIP-dedicated, 2 = follower.
func (p *DIP) setKind(set int) int {
	switch set % dedicationStride {
	case 0:
		return 0
	case 1:
		return 1
	}
	return 2
}

// usesBIP reports whether fills into the set should use BIP insertion.
func (p *DIP) usesBIP(set int) bool {
	switch p.setKind(set) {
	case 0:
		return false
	case 1:
		return true
	}
	return p.psel > p.max/2
}

// Touch implements Policy: each row takes a fresh stamp from its own clock.
func (p *DIP) Touch(set, way int) {
	p.lru.Touch(set, way)
	p.bip.lru.Touch(set, way)
}

// Insert implements Policy: the row of the insertion policy in force
// stamps the way, and the other row copies the stamp.
func (p *DIP) Insert(set, way int) {
	if p.usesBIP(set) {
		p.bip.Insert(set, way)
		p.lru.write(set, way, p.bip.lru.row(set)[way])
		return
	}
	p.lru.Insert(set, way)
	p.bip.lru.write(set, way, p.lru.row(set)[way])
}

// Miss implements Policy: misses in dedicated sets move PSEL toward the
// other policy.
func (p *DIP) Miss(set int) {
	switch p.setKind(set) {
	case 0: // LRU-dedicated set missed: vote for BIP
		if p.psel < p.max {
			p.psel++
		}
	case 1: // BIP-dedicated set missed: vote for LRU
		if p.psel > 0 {
			p.psel--
		}
	}
}

// Victim implements Policy.
func (p *DIP) Victim(set int) int { return p.lru.Victim(set) }

// NRU is not-recently-used replacement with one reference bit per line.
// It is not used by any paper configuration but serves as a cheap
// comparison point in ablations and tests.
type NRU struct {
	assoc int
	ref   []bool
	hand  []int
}

// NewNRU creates an NRU policy.
func NewNRU(sets, assoc int) *NRU {
	return &NRU{assoc: assoc, ref: make([]bool, sets*assoc), hand: make([]int, sets)}
}

// Name implements Policy.
func (p *NRU) Name() string { return "nru" }

// CopyFrom implements Policy.
func (p *NRU) CopyFrom(src Policy) {
	s := src.(*NRU)
	p.assoc = s.assoc
	p.ref = append(p.ref[:0], s.ref...)
	p.hand = append(p.hand[:0], s.hand...)
}

// Touch implements Policy.
func (p *NRU) Touch(set, way int) { p.ref[set*p.assoc+way] = true }

// Insert implements Policy.
func (p *NRU) Insert(set, way int) { p.ref[set*p.assoc+way] = true }

// Miss implements Policy.
func (p *NRU) Miss(int) {}

// Victim implements Policy: clock sweep for a clear reference bit.
func (p *NRU) Victim(set int) int {
	base := set * p.assoc
	for sweep := 0; sweep < 2*p.assoc; sweep++ {
		w := p.hand[set]
		p.hand[set] = (w + 1) % p.assoc
		if !p.ref[base+w] {
			return w
		}
		p.ref[base+w] = false
	}
	return 0
}
