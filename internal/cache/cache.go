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
// and never changes an outcome. A direct-mapped cache tests its one way's
// valid bit and tag directly, and since it has no replacement choice it
// keeps no policy at all.
type Cache struct {
	cfg     Config
	lines   []memaddr.Line // sets*assoc tags
	sigs    []byte         // sets*assoc signatures plus 8 bytes of padding; nil below swarMinAssoc
	valid   []uint64       // per-set way bitmask
	dirty   []uint64       // per-set way bitmask
	full    uint64         // assoc ones: the value of a full set's valid mask
	setMask uint64         // Sets-1 when Sets is a power of two, else 0
	pol     policy.Policy  // nil when Assoc is 1
	occ     int            // valid lines, kept by fill and Invalidate
	stats   Stats
}

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
	var setMask uint64
	if s := uint64(cfg.Sets); s&(s-1) == 0 {
		setMask = s - 1
	}
	var sigs []byte
	if cfg.Assoc >= swarMinAssoc {
		// The padding lets the last set's final word load stay in bounds.
		sigs = make([]byte, cfg.Sets*cfg.Assoc+8)
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]memaddr.Line, cfg.Sets*cfg.Assoc),
		sigs:    sigs,
		valid:   make([]uint64, cfg.Sets),
		dirty:   make([]uint64, cfg.Sets),
		full:    full,
		setMask: setMask,
		pol:     pol,
	}, nil
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

// findWay returns the way holding line in set, or -1.
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
	return c.findWay(c.SetOf(line), line) >= 0
}

// Access performs a demand access with allocate-on-miss semantics: on a
// miss the line is filled immediately (contents-wise) and the displaced
// line, if any, is returned. Timing layers sequence the actual fill and
// writeback traffic around this bookkeeping.
//
//alloyvet:hotpath
func (c *Cache) Access(line memaddr.Line, write bool) (hit bool, ev Eviction) {
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		c.stats.Hits++
		if write {
			c.stats.WriteHits++
			c.dirty[set] |= 1 << uint(w)
		}
		if c.pol != nil {
			c.pol.Touch(set, w)
		}
		return true, Eviction{}
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	}
	if c.pol != nil {
		c.pol.Miss(set)
	}
	ev = c.fill(set, line, write)
	return false, ev
}

// Probe performs a non-allocating lookup, updating hit/miss statistics and
// recency on hit but never filling. Useful for modeling tag checks whose
// fills are decided elsewhere.
//
//alloyvet:hotpath
func (c *Cache) Probe(line memaddr.Line, write bool) bool {
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		c.stats.Hits++
		if write {
			c.stats.WriteHits++
			c.dirty[set] |= 1 << uint(w)
		}
		if c.pol != nil {
			c.pol.Touch(set, w)
		}
		return true
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	}
	if c.pol != nil {
		c.pol.Miss(set)
	}
	return false
}

// Fill inserts a line (e.g. after a memory response) and returns the
// eviction it caused. Filling a line already present is a no-op.
func (c *Cache) Fill(line memaddr.Line, dirty bool) Eviction {
	set := c.SetOf(line)
	if w := c.findWay(set, line); w >= 0 {
		if dirty {
			c.dirty[set] |= 1 << uint(w)
		}
		return Eviction{}
	}
	return c.fill(set, line, dirty)
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
		// A direct-mapped cache keeps no policy: its victim is way 0.
		if c.pol != nil {
			way = c.pol.Victim(set)
		}
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
	if c.pol != nil {
		c.pol.Insert(set, way)
	}
	if invariants.Enabled {
		c.checkSet(set)
	}
	return ev
}

// checkSet asserts the set's occupancy bitmasks are consistent: a dirty
// bit implies a valid bit, and no bit exceeds the associativity. Every
// valid way's signature must match its tag, or the lookup would miss a
// resident line. Only meaningful under -tags invariants; a
// dirty-without-valid bit turns into a phantom writeback the next time
// the way is reused.
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

// Invalidate removes a line if present and returns whether it was dirty.
func (c *Cache) Invalidate(line memaddr.Line) (present, dirty bool) {
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
	if c.pol != nil {
		d.pol = c.pol.Clone()
	}
	return &d
}

// CopyFrom overwrites the cache's contents, statistics and replacement
// state with an independent copy of src's. It copies in place, so every
// holder of a pointer to c (metric closures, organizations) sees the new
// state. src must have the same Config; anything else is a caller bug.
func (c *Cache) CopyFrom(src *Cache) {
	if c.cfg != src.cfg {
		panic(fmt.Sprintf("cache: CopyFrom between configs %+v and %+v", c.cfg, src.cfg))
	}
	copy(c.lines, src.lines)
	copy(c.sigs, src.sigs)
	copy(c.valid, src.valid)
	copy(c.dirty, src.dirty)
	if src.pol != nil {
		c.pol = src.pol.Clone()
	}
	c.occ, c.stats = src.occ, src.stats
}
