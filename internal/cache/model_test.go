package cache

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"alloysim/internal/memaddr"
)

// modelEntry is one resident line of the reference model.
type modelEntry struct {
	line  memaddr.Line
	dirty bool
}

// lruModel is an obviously-correct LRU cache: each set is a list of
// resident lines, most recent first. It shares nothing with Cache but the
// set mapping.
type lruModel struct {
	sets  [][]modelEntry
	assoc int
	stats Stats
}

func newLRUModel(sets, assoc int) *lruModel {
	return &lruModel{sets: make([][]modelEntry, sets), assoc: assoc}
}

func (m *lruModel) find(line memaddr.Line) (set, i int) {
	set = int(uint64(line) % uint64(len(m.sets)))
	for i, e := range m.sets[set] {
		if e.line == line {
			return set, i
		}
	}
	return set, -1
}

// promote moves entry i of the set to the front (most recent).
func (m *lruModel) promote(set, i int) {
	row := m.sets[set]
	e := row[i]
	copy(row[1:i+1], row[:i])
	row[0] = e
}

// insert places a missing line at the front, evicting the last (least
// recent) entry of a full set.
func (m *lruModel) insert(set int, line memaddr.Line, dirty bool) Eviction {
	var ev Eviction
	row := m.sets[set]
	if len(row) == m.assoc {
		last := row[len(row)-1]
		ev = Eviction{Line: last.line, Dirty: last.dirty, Valid: true}
		m.stats.Evictions++
		if last.dirty {
			m.stats.Writebacks++
		}
		row = row[:len(row)-1]
	}
	m.sets[set] = append([]modelEntry{{line, dirty}}, row...)
	return ev
}

func (m *lruModel) lookup(line memaddr.Line, write bool) (set, i int) {
	set, i = m.find(line)
	if i >= 0 {
		m.stats.Hits++
		if write {
			m.stats.WriteHits++
			m.sets[set][i].dirty = true
		}
		m.promote(set, i)
		return set, 0
	}
	m.stats.Misses++
	if write {
		m.stats.WriteMisses++
	}
	return set, -1
}

func (m *lruModel) Access(line memaddr.Line, write bool) (bool, Eviction) {
	set, i := m.lookup(line, write)
	if i >= 0 {
		return true, Eviction{}
	}
	return false, m.insert(set, line, write)
}

func (m *lruModel) Probe(line memaddr.Line, write bool) bool {
	_, i := m.lookup(line, write)
	return i >= 0
}

// Fill of a resident line only merges the dirty bit; recency is unchanged.
func (m *lruModel) Fill(line memaddr.Line, dirty bool) Eviction {
	set, i := m.find(line)
	if i >= 0 {
		m.sets[set][i].dirty = m.sets[set][i].dirty || dirty
		return Eviction{}
	}
	return m.insert(set, line, dirty)
}

func (m *lruModel) Invalidate(line memaddr.Line) (present, dirty bool) {
	set, i := m.find(line)
	if i < 0 {
		return false, false
	}
	dirty = m.sets[set][i].dirty
	m.sets[set] = append(m.sets[set][:i], m.sets[set][i+1:]...)
	return true, dirty
}

func (m *lruModel) Occupancy() int {
	n := 0
	for _, row := range m.sets {
		n += len(row)
	}
	return n
}

// sameSignature returns n distinct lines that all map to set and share
// one lookup signature, so a set full of them makes every signature word
// report every way as a candidate. It searches the set's lines upward from
// the first at or above from, and panics rather than wrap past 2^64.
func sameSignature(sets, set int, from memaddr.Line, n int) []memaddr.Line {
	var out []memaddr.Line
	step := memaddr.Line(sets)
	l := from - from%step + memaddr.Line(set)
	if l < from {
		l += step
	}
	want := signature(l)
	for ; len(out) < n; l += step {
		if l < from {
			panic("cache: signature search wrapped past 2^64")
		}
		if signature(l) == want {
			out = append(out, l)
		}
	}
	return out
}

// A lineWindow is where a model stream draws its lines: from 0, around
// 2^63, or just below 2^64, where a direct-mapped set's word keeps its
// largest tags. base gives the first random line of a stream of span
// lines, and from is where the colliding lines' search starts.
type lineWindow struct {
	name string
	base func(span uint64) memaddr.Line
	from memaddr.Line
}

var (
	lowLines    = lineWindow{"low", func(uint64) memaddr.Line { return 0 }, 0}
	highWindows = []lineWindow{
		{"near2pow63", func(span uint64) memaddr.Line { return 1<<63 - memaddr.Line(span/2) }, 1<<63 - 1<<20},
		// The colliding search takes about 2^15 lines of set 1, which at
		// 28 sets is most of 2^20, so it starts 2^21 below 2^64.
		{"near2pow64", func(span uint64) memaddr.Line { return math.MaxUint64 - memaddr.Line(span) + 1 }, math.MaxUint64 - 1<<21 + 1},
	}
)

// modelStream is the random operation stream of the model tests: lines
// over three times the capacity, so there are hits and evictions, half of
// them drawn from lines brute-forced to share one signature in set 1, the
// worst case for the signature match.
type modelStream struct {
	x         uint64
	base      memaddr.Line
	span      uint64
	colliding []memaddr.Line
}

func newModelStream(sets, assoc int, w lineWindow) *modelStream {
	span := uint64(3 * sets * assoc)
	return &modelStream{
		x:         uint64(0x9E3779B97F4A7C15) ^ uint64(assoc),
		base:      w.base(span),
		span:      span,
		colliding: sameSignature(sets, 1, w.from, 2*assoc),
	}
}

func (s *modelStream) rnd(n uint64) uint64 {
	s.x ^= s.x << 13
	s.x ^= s.x >> 7
	s.x ^= s.x << 17
	return s.x % n
}

// next draws one operation: a line, a write flag and an operation code
// in [0, 10): Access below 5, Probe below 7, Fill below 9, else
// Invalidate.
func (s *modelStream) next() (line memaddr.Line, write bool, op uint64) {
	line = s.base + memaddr.Line(s.rnd(s.span))
	if s.rnd(2) == 0 {
		line = s.colliding[s.rnd(uint64(len(s.colliding)))]
	}
	return line, s.rnd(3) == 0, s.rnd(10)
}

// TestCacheMatchesLRUModel drives Cache under "lru" and the reference
// model with the same random Access, Probe, Fill and Invalidate stream and
// compares every outcome: hit flags, evicted line and dirty bit,
// invalidation results, residency, statistics and occupancy. Each
// associativity runs a stream of low lines at 16 sets, and streams around
// 2^63 and just below 2^64, whose tags fill a direct-mapped word, at 16
// sets and at 28, Alloy's lines per row, whose tags come from a division.
func TestCacheMatchesLRUModel(t *testing.T) {
	for _, assoc := range []int{1, 2, 8, 16, 29, 32, 64} {
		t.Run(fmt.Sprintf("assoc%d", assoc), func(t *testing.T) {
			checkLRUModel(t, 16, assoc, lowLines)
		})
		for _, w := range highWindows {
			for _, sets := range []int{16, 28} {
				t.Run(fmt.Sprintf("%s/sets%d/assoc%d", w.name, sets, assoc), func(t *testing.T) {
					checkLRUModel(t, sets, assoc, w)
				})
			}
		}
	}
}

func checkLRUModel(t *testing.T, sets, assoc int, w lineWindow) {
	const ops = 200000
	c := MustNew(Config{Sets: sets, Assoc: assoc, Policy: "lru"})
	m := newLRUModel(sets, assoc)
	st := newModelStream(sets, assoc, w)
	for i := 0; i < ops; i++ {
		line, write, op := st.next()
		switch {
		case op < 5:
			gh, gev := c.Access(line, write)
			wh, wev := m.Access(line, write)
			if gh != wh || gev != wev {
				t.Fatalf("op %d: Access(%d, %v) = (%v, %+v), model (%v, %+v)", i, line, write, gh, gev, wh, wev)
			}
		case op < 7:
			if g, w := c.Probe(line, write), m.Probe(line, write); g != w {
				t.Fatalf("op %d: Probe(%d, %v) = %v, model %v", i, line, write, g, w)
			}
		case op < 9:
			if g, w := c.Fill(line, write), m.Fill(line, write); g != w {
				t.Fatalf("op %d: Fill(%d, %v) = %+v, model %+v", i, line, write, g, w)
			}
		default:
			gp, gd := c.Invalidate(line)
			wp, wd := m.Invalidate(line)
			if gp != wp || gd != wd {
				t.Fatalf("op %d: Invalidate(%d) = (%v, %v), model (%v, %v)", i, line, gp, gd, wp, wd)
			}
		}
		if _, j := m.find(line); c.Contains(line) != (j >= 0) {
			t.Fatalf("op %d: Contains(%d) = %v, model %v", i, line, j < 0, j >= 0)
		}
	}
	if c.Stats() != m.stats {
		t.Fatalf("stats %+v, model %+v", c.Stats(), m.stats)
	}
	if c.Occupancy() != m.Occupancy() {
		t.Fatalf("occupancy %d, model %d", c.Occupancy(), m.Occupancy())
	}
	for _, l := range st.colliding {
		if _, j := m.find(l); c.Contains(l) != (j >= 0) {
			t.Fatalf("colliding line %d: Contains = %v, model %v", l, j < 0, j >= 0)
		}
	}
}

// TestCopiesMatchOriginal runs the model stream halfway through a cache,
// then takes a Clone, and a CopyFrom into a cache that held other lines,
// and drives all three with the rest of the stream. The original is the
// reference: every Access, Probe, Fill and Invalidate outcome (eviction
// line and dirty bit included) of each copy must match the original's, and
// so must the statistics, the occupancy and residency over the stream's
// span.
func TestCopiesMatchOriginal(t *testing.T) {
	const sets, ops = 16, 100000
	for _, pol := range []string{"dip", "srrip", "random", "ship"} {
		for _, assoc := range []int{1, 16, 29, 32} {
			t.Run(fmt.Sprintf("%s/assoc%d", pol, assoc), func(t *testing.T) {
				cfg := Config{Sets: sets, Assoc: assoc, Policy: pol}
				c := MustNew(cfg)
				st := newModelStream(sets, assoc, lowLines)
				apply := func(c *Cache, line memaddr.Line, write bool, op uint64) string {
					switch {
					case op < 5:
						hit, ev := c.Access(line, write)
						return fmt.Sprint(hit, ev)
					case op < 7:
						return fmt.Sprint(c.Probe(line, write))
					case op < 9:
						return fmt.Sprint(c.Fill(line, write))
					default:
						present, dirty := c.Invalidate(line)
						return fmt.Sprint(present, dirty)
					}
				}
				for i := 0; i < ops/2; i++ {
					line, write, op := st.next()
					apply(c, line, write, op)
				}
				clone := c.Clone()
				dst := cfg
				if assoc == 1 {
					// A one-way cache builds no policy, so it copies a
					// store of any policy name and seed (Config.Shape).
					dst.Policy, dst.Seed = "lru", 7
				}
				copied := MustNew(dst)
				for l := memaddr.Line(0); l < memaddr.Line(st.span); l += 3 {
					copied.Access(l+memaddr.Line(st.span), true)
				}
				copied.CopyFrom(c)
				for i := ops / 2; i < ops; i++ {
					line, write, op := st.next()
					want := apply(c, line, write, op)
					if got := apply(clone, line, write, op); got != want {
						t.Fatalf("op %d (%d on line %d): clone %s, original %s", i, op, line, got, want)
					}
					if got := apply(copied, line, write, op); got != want {
						t.Fatalf("op %d (%d on line %d): CopyFrom copy %s, original %s", i, op, line, got, want)
					}
				}
				for _, cp := range []*Cache{clone, copied} {
					if cp.Stats() != c.Stats() || cp.Occupancy() != c.Occupancy() {
						t.Fatalf("copy stats %+v occupancy %d, original %+v %d", cp.Stats(), cp.Occupancy(), c.Stats(), c.Occupancy())
					}
					for l := memaddr.Line(0); l < memaddr.Line(2*st.span); l++ {
						if cp.Contains(l) != c.Contains(l) {
							t.Fatalf("line %d: copy resident %v, original %v", l, cp.Contains(l), c.Contains(l))
						}
					}
				}
			})
		}
	}
}

// TestOccupancyMatchesRecount checks the running occupancy count against a
// recount of the valid masks and direct-mapped flags after a random stream of every operation
// that can change residency, on direct-mapped and set-associative fill
// paths.
func TestOccupancyMatchesRecount(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 7, Assoc: 1}, {Sets: 16, Assoc: 4, Policy: "dip"},
		{Sets: 9, Assoc: 29, Policy: "random"}, {Sets: 4, Assoc: 64, Policy: "srrip"},
	} {
		c := MustNew(cfg)
		x := uint64(12345)
		for i := 0; i < 50000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			line := memaddr.Line(x >> 33 % uint64(4*cfg.Lines()))
			switch x >> 61 {
			case 0, 1, 2:
				c.Access(line, x&1 == 0)
			case 3:
				c.Probe(line, true)
			case 4, 5:
				c.Fill(line, x&2 == 0)
			default:
				c.Invalidate(line)
			}
		}
		n := 0
		for _, m := range c.valid {
			n += bits.OnesCount64(m)
		}
		for _, e := range c.dm {
			n += int(e & dmValid)
		}
		if c.Occupancy() != n {
			t.Errorf("%+v: Occupancy %d, recount %d", cfg, c.Occupancy(), n)
		}
	}
}
