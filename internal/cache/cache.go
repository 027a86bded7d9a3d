// Package cache implements a generic set-associative cache model with
// pluggable replacement. It tracks contents only (tags, valid and dirty
// bits) — timing lives in the levels that own the cache: the L3 front-end
// and the DRAM-cache organizations layer latency over this structure.
//
// Set counts need not be powers of two: the Alloy Cache's 28-line rows
// produce a non-power-of-two set count, indexed by residue (paper §4.1).
package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/policy"
)

// Config describes a cache's geometry and replacement policy.
type Config struct {
	Sets   int    // number of sets (any positive integer)
	Assoc  int    // ways per set
	Policy string // a policy.Known name: "lru", "random", "srrip", ...
	Seed   uint64 // stochastic-policy seed; 0 keeps the legacy fixed seed
}

// Lines returns the total line capacity.
func (c Config) Lines() int { return c.Sets * c.Assoc }

// Shape returns the part of the config that a cache's contents and
// decisions follow from. A direct-mapped cache builds no policy, so its
// policy name and seed drop out: two one-way caches of equal Sets hold
// and decide alike whatever policy they name.
func (c Config) Shape() Config {
	if c.Assoc == 1 {
		c.Policy, c.Seed = "", 0
	}
	return c
}

// ErrFewSets is the error Validate wraps for a direct-mapped cache of
// fewer than four sets. Such a cache keeps each set in one 64-bit word,
// its tag (line / Sets) above two flag bits, which holds the tag of every
// line only once Sets is at least 4.
var ErrFewSets = errors.New("cache: a direct-mapped cache needs at least 4 sets")

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 {
		return fmt.Errorf("cache: Sets must be positive, got %d", c.Sets)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cache: Assoc must be positive, got %d", c.Assoc)
	}
	if c.Assoc > 64 {
		return fmt.Errorf("cache: Assoc %d exceeds the 64-way bitmask limit", c.Assoc)
	}
	if c.Assoc == 1 && c.Sets < 4 {
		return fmt.Errorf("%w, got %d", ErrFewSets, c.Sets)
	}
	return nil
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	Line  memaddr.Line
	Dirty bool
	Valid bool // false when the fill used an invalid way (no eviction)
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writebacks  uint64 // dirty evictions
	Evictions   uint64 // all valid evictions
	WriteHits   uint64
	WriteMisses uint64
}

// Accesses returns total demand accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns hits / accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator is single-threaded and deterministic by design.
//
// Contents are stored struct-of-arrays: a flat tag array plus one valid and
// one dirty bitmask per set (hence the 64-way limit). A free way is found in
// O(1) by counting trailing zeros of the inverted valid mask.
//
// Set-associative caches also keep a one-byte signature per way, a hash of
// the line, and the lookup compares eight signatures per 64-bit word before
// it reads any tag; a signature match is only a candidate, confirmed
// against the valid mask and the full tag, so a collision costs one compare
// and never changes an outcome.
//
// A direct-mapped cache keeps none of those rows: each set is one 8-byte
// word, the tag of its line (line / Sets) shifted above the dmValid and
// dmDirty flags, so a lookup is one compare, and a lookup or a fill
// touches one memory cache line instead of three. An eviction rebuilds its
// line as tag*Sets + set. It has no replacement choice, so it keeps no
// policy at all.
type Cache struct {
	cfg      Config
	lines    []memaddr.Line // sets*assoc tags; nil when Assoc is 1
	sigs     []byte         // sets*assoc signatures plus 8 bytes of padding; nil below swarMinAssoc
	valid    []uint64       // per-set way bitmask; nil when Assoc is 1
	dirty    []uint64       // per-set way bitmask; nil when Assoc is 1
	dm       []uint64       // per-set tag<<2 | flags when Assoc is 1, else nil
	full     uint64         // assoc ones: the value of a full set's valid mask
	setMask  uint64         // Sets-1 when Sets is a power of two, else 0
	setShift uint           // log2(Sets) when Sets is a power of two
	pol      policy.Policy  // nil when Assoc is 1
	occ      int            // valid lines, kept by fill and Invalidate
	stats    Stats
}

// The flag bits of a direct-mapped set's word, below its tag.
const (
	dmValid = 1 << iota
	dmDirty
)

// dmSplit returns a line's direct-mapped set and the word that set holds
// while the line is resident and clean: tag<<2 | dmValid. A power-of-two
// set count takes a mask and a shift; any other takes one division.
//
//alloyvet:hotpath
func (c *Cache) dmSplit(line memaddr.Line) (set int, word uint64) {
	if c.setMask != 0 {
		return int(uint64(line) & c.setMask), uint64(line)>>c.setShift<<2 | dmValid
	}
	sets := uint64(c.cfg.Sets)
	tag := uint64(line) / sets
	return int(uint64(line) - tag*sets), tag<<2 | dmValid
}

// dmLine rebuilds the line a valid direct-mapped word of the set holds.
//
//alloyvet:hotpath
func (c *Cache) dmLine(set int, e uint64) memaddr.Line {
	return memaddr.Line(e>>2*uint64(c.cfg.Sets) + uint64(set))
}

// holds reports whether direct-mapped word e holds the line whose clean
// word (dmSplit) is word.
//
//alloyvet:hotpath
func holds(e, word uint64) bool { return e&^dmDirty == word }

// swarMinAssoc is the smallest associativity that keeps signatures.
// BenchmarkAccess (2-CPU Xeon, two sets of 6 alternating rounds) puts
// signatures at 13–24% less time per access for a 2-way array and 29–30%
// less for a 4-way one, which skip the tag row on most misses, and 13%
// more for a direct-mapped one, whose plain lookup is one valid test and
// one tag compare.
const swarMinAssoc = 2

// Byte-lane constants of the zero-byte test: every zero byte of a word x
// sets its lane's top bit in (x - lowBits) &^ x & highBits. The borrow out
// of a zero byte can also set the bit of a 0x01 byte above it, one more
// reason every candidate is confirmed.
const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// signature hashes a line to its one-byte lookup signature: the top byte
// of a Fibonacci hash depends on every bit of the line, so the lines of one
// set, which share their low (set-index) bits, still spread across all 256
// values.
//
//alloyvet:hotpath
func signature(line memaddr.Line) byte {
	return byte(uint64(line) * 0x9E3779B97F4A7C15 >> 56)
}

// New creates a cache from the config. An empty Policy defaults to "lru".
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	name := cfg.Policy
	if name == "" {
		name = "lru"
	}
	var pol policy.Policy
	var err error
	if cfg.Assoc == 1 {
		// Every policy's Victim returns the only way, and no other policy
		// state is observable, so a direct-mapped cache only checks the name.
		err = policy.Check(name)
	} else {
		pol, err = policy.NewSeeded(name, cfg.Sets, cfg.Assoc, cfg.Seed)
	}
	if err != nil {
		return nil, err
	}
	full := ^uint64(0)
	if cfg.Assoc < 64 {
		full = 1<<uint(cfg.Assoc) - 1
	}
	c := &Cache{cfg: cfg, full: full, pol: pol}
	if s := uint64(cfg.Sets); s&(s-1) == 0 {
		c.setMask, c.setShift = s-1, uint(bits.TrailingZeros64(s))
	}
	if cfg.Assoc == 1 {
		c.dm = make([]uint64, cfg.Sets)
		return c, nil
	}
	c.lines = make([]memaddr.Line, cfg.Sets*cfg.Assoc)
	c.valid = make([]uint64, cfg.Sets)
	c.dirty = make([]uint64, cfg.Sets)
	if cfg.Assoc >= swarMinAssoc {
		// The padding lets the last set's final word load stay in bounds.
		c.sigs = make([]byte, cfg.Sets*cfg.Assoc+8)
	}
	return c, nil
}

// MustNew is New but panics on error; for tests and fixed configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counts.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters, keeping contents and replacement
// state; used to separate warmup from measurement.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// SetOf returns the set index for a line. Power-of-two set counts take a
// mask instead of the hardware divide; the Alloy Cache's 28-line rows fall
// back to the general residue.
//
//alloyvet:hotpath
func (c *Cache) SetOf(line memaddr.Line) int {
	if c.setMask != 0 {
		return int(uint64(line) & c.setMask)
	}
	return int(line.Mod(uint64(c.cfg.Sets)))
}

// findWay returns the way holding line in a set-associative cache's set,
// or -1.
//
//alloyvet:hotpath
func (c *Cache) findWay(set int, line memaddr.Line) int {
	base := set * c.cfg.Assoc
	valid := c.valid[set]
	if c.sigs == nil {
		for m := valid; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			if c.lines[base+w] == line {
				return w
			}
		}
		return -1
	}
	pattern := uint64(signature(line)) * lowBits
	for off := 0; off < c.cfg.Assoc; off += 8 {
		x := binary.LittleEndian.Uint64(c.sigs[base+off:]) ^ pattern
		// Lanes past Assoc belong to the next set or the padding; their
		// valid bits are clear, so they never confirm.
		for m := (x - lowBits) &^ x & highBits; m != 0; m &= m - 1 {
			w := off + bits.TrailingZeros64(m)>>3
			if valid&(1<<uint(w)) != 0 && c.lines[base+w] == line {
				return w
			}
		}
	}
	return -1
}

// Contains reports whether the line is present, without disturbing
// replacement state or statistics. The idealized MissMap and the Perfect
// predictor are built on this probe.
func (c *Cache) Contains(line memaddr.Line) bool {
	if c.dm != nil {
		set, word := c.dmSplit(line)
		return holds(c.dm[set], word)
	}
	return c.findWay(c.SetOf(line), line) >= 0
}

// Access performs a demand access with allocate-on-miss semantics: on a
// miss the line is filled immediately (contents-wise) and the displaced
// line, if any, is returned. Timing layers sequence the actual fill and
// writeback traffic around this bookkeeping.
//
//alloyvet:hotpath
func (c *Cache) Access(line memaddr.Line, write bool) (hit bool, ev Eviction) {
	if c.dm != nil {
		set, word := c.dmSplit(line)
		if c.hitDM(set, word, write) {
			return true, Eviction{}
		}
		return false, c.fillDM(set, word, write)
	}
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		c.stats.Hits++
		if write {
			c.stats.WriteHits++
			c.dirty[set] |= 1 << uint(w)
		}
		c.pol.Touch(set, w)
		return true, Eviction{}
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	}
	c.pol.Miss(set)
	ev = c.fill(set, line, write)
	return false, ev
}

// Probe performs a non-allocating lookup, updating hit/miss statistics and
// recency on hit but never filling. Useful for modeling tag checks whose
// fills are decided elsewhere.
//
//alloyvet:hotpath
func (c *Cache) Probe(line memaddr.Line, write bool) bool {
	if c.dm != nil {
		set, word := c.dmSplit(line)
		return c.hitDM(set, word, write)
	}
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		c.stats.Hits++
		if write {
			c.stats.WriteHits++
			c.dirty[set] |= 1 << uint(w)
		}
		c.pol.Touch(set, w)
		return true
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	}
	c.pol.Miss(set)
	return false
}

// Fill inserts a line (e.g. after a memory response) and returns the
// eviction it caused. Filling a line already present is a no-op.
func (c *Cache) Fill(line memaddr.Line, dirty bool) Eviction {
	if c.dm != nil {
		set, word := c.dmSplit(line)
		if !holds(c.dm[set], word) {
			return c.fillDM(set, word, dirty)
		}
		if dirty {
			c.dm[set] |= dmDirty
		}
		return Eviction{}
	}
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		if dirty {
			c.dirty[set] |= 1 << uint(w)
		}
		return Eviction{}
	}
	return c.fill(set, line, dirty)
}

// hitDM is a direct-mapped set's lookup for Access and Probe of the line
// whose clean word is word: on a hit it counts it and marks a write dirty,
// on a miss it counts the miss.
//
//alloyvet:hotpath
func (c *Cache) hitDM(set int, word uint64, write bool) bool {
	if holds(c.dm[set], word) {
		c.stats.Hits++
		if write {
			c.stats.WriteHits++
			c.dm[set] |= dmDirty
		}
		return true
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	}
	return false
}

// fillDM installs the line whose clean word is word in its direct-mapped
// set and returns what it displaced.
//
//alloyvet:hotpath
func (c *Cache) fillDM(set int, word uint64, dirty bool) Eviction {
	if invariants.Enabled {
		c.checkDM(set)
	}
	var ev Eviction
	if e := c.dm[set]; e&dmValid == 0 {
		c.occ++
	} else {
		ev = Eviction{Line: c.dmLine(set, e), Dirty: e&dmDirty != 0, Valid: true}
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.Writebacks++
		}
	}
	if dirty {
		word |= dmDirty
	}
	c.dm[set] = word
	return ev
}

//alloyvet:hotpath
func (c *Cache) fill(set int, line memaddr.Line, dirty bool) Eviction {
	base := set * c.cfg.Assoc
	var ev Eviction
	var way int
	if free := ^c.valid[set] & c.full; free != 0 {
		// Lowest invalid way first, matching the policy's insertion model.
		way = bits.TrailingZeros64(free)
		c.occ++
	} else {
		way = c.pol.Victim(set)
		if invariants.Enabled && (way < 0 || way >= c.cfg.Assoc) {
			// An out-of-range victim indexes into the neighboring set's
			// tags — silent cross-set corruption, not a bounds panic.
			invariants.Failf("cache: policy victim way %d outside [0,%d) for set %d", way, c.cfg.Assoc, set)
		}
		wasDirty := c.dirty[set]&(1<<uint(way)) != 0
		ev = Eviction{Line: c.lines[base+way], Dirty: wasDirty, Valid: true}
		c.stats.Evictions++
		if wasDirty {
			c.stats.Writebacks++
		}
	}
	c.lines[base+way] = line
	if c.sigs != nil {
		c.sigs[base+way] = signature(line)
	}
	c.valid[set] |= 1 << uint(way)
	if dirty {
		c.dirty[set] |= 1 << uint(way)
	} else {
		c.dirty[set] &^= 1 << uint(way)
	}
	c.pol.Insert(set, way)
	if invariants.Enabled {
		c.checkSet(set)
	}
	return ev
}

// checkSet asserts a set-associative set's occupancy bitmasks are
// consistent: a dirty bit implies a valid bit, and no bit exceeds the
// associativity. Every valid way's signature must match its tag, or the
// lookup would miss a resident line. Only meaningful under -tags
// invariants; a dirty-without-valid bit turns into a phantom writeback the
// next time the way is reused.
func (c *Cache) checkSet(set int) {
	if orphan := c.dirty[set] &^ c.valid[set]; orphan != 0 {
		invariants.Failf("cache: set %d has dirty bits %#x without valid bits (valid %#x)", set, orphan, c.valid[set])
	}
	if over := c.valid[set] &^ c.full; over != 0 {
		invariants.Failf("cache: set %d valid mask %#x exceeds %d ways", set, c.valid[set], c.cfg.Assoc)
	}
	if c.sigs == nil {
		return
	}
	base := set * c.cfg.Assoc
	for m := c.valid[set]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if got, want := c.sigs[base+w], signature(c.lines[base+w]); got != want {
			invariants.Failf("cache: set %d way %d signature %#x, want %#x for line %d", set, w, got, want, c.lines[base+w])
		}
	}
}

// checkDM asserts a direct-mapped set's word is consistent: a dirty bit
// implies a valid bit. Only meaningful under -tags invariants; a set that
// is dirty without being valid has lost track of which line it wrote.
func (c *Cache) checkDM(set int) {
	if e := c.dm[set]; e&(dmValid|dmDirty) == dmDirty {
		invariants.Failf("cache: direct-mapped set %d is dirty without being valid (word %#x)", set, e)
	}
}

// Invalidate removes a line if present and returns whether it was dirty.
func (c *Cache) Invalidate(line memaddr.Line) (present, dirty bool) {
	if c.dm != nil {
		set, word := c.dmSplit(line)
		if invariants.Enabled {
			c.checkDM(set)
		}
		e := c.dm[set]
		if !holds(e, word) {
			return false, false
		}
		c.dm[set] = 0
		c.occ--
		return true, e&dmDirty != 0
	}
	set := c.SetOf(line)
	w := c.findWay(set, line)
	if w < 0 {
		return false, false
	}
	bit := uint64(1) << uint(w)
	dirty = c.dirty[set]&bit != 0
	c.valid[set] &^= bit
	c.dirty[set] &^= bit
	c.lines[set*c.cfg.Assoc+w] = 0
	c.occ--
	if invariants.Enabled {
		c.checkSet(set)
	}
	return true, dirty
}

// Occupancy returns the number of valid lines; useful for warmup checks.
func (c *Cache) Occupancy() int { return c.occ }

// Clone returns an independent copy of the cache: contents, statistics and
// replacement state. The copy answers every later operation exactly as the
// original would.
func (c *Cache) Clone() *Cache {
	d := *c
	d.lines = slices.Clone(c.lines)
	d.sigs = slices.Clone(c.sigs)
	d.valid = slices.Clone(c.valid)
	d.dirty = slices.Clone(c.dirty)
	d.dm = slices.Clone(c.dm)
	if c.pol != nil {
		// New built c's policy by this call, so it cannot fail.
		d.pol, _ = policy.NewSeeded(c.pol.Name(), c.cfg.Sets, c.cfg.Assoc, c.cfg.Seed)
		d.pol.CopyFrom(c.pol)
	}
	return &d
}

// CopyFrom overwrites the cache's contents, statistics and replacement
// state with a copy of src's. It copies in place, allocating nothing, so
// every holder of a pointer to c (metric closures, organizations) sees the
// new state. src must have the same Shape; anything else is a caller bug.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg.Shape() != src.cfg.Shape() {
		panic(fmt.Sprintf("cache: CopyFrom between configs %+v and %+v", c.cfg, src.cfg))
	}
	copy(c.lines, src.lines)
	copy(c.sigs, src.sigs)
	copy(c.valid, src.valid)
	copy(c.dirty, src.dirty)
	copy(c.dm, src.dm)
	if src.pol != nil {
		c.pol.CopyFrom(src.pol)
	}
	c.occ, c.stats = src.occ, src.stats
}
