package memaddr

import "math/bits"

// LineSet tracks the set of unique lines touched by a run — the footprint
// statistic. Lines are grouped per 64-line (4 KB) page, one bitmap word per
// page, stored in an open-addressed hash table keyed by page index. Compared
// with a map[Line]struct{} this is page-granular (one entry covers 64
// lines, which spatial locality fills densely) and allocation-free per Add
// in steady state: the only allocations are the geometric table growths.
type LineSet struct {
	pages []uint64 // page index + 1; 0 marks an empty slot
	words []uint64 // line-presence bitmap for the page in the same slot
	used  int      // occupied slots
	mask  uint64   // len(pages) - 1; table size is a power of two
}

const lineSetMinSlots = 1024

// NewLineSet returns an empty set.
func NewLineSet() *LineSet {
	return &LineSet{
		pages: make([]uint64, lineSetMinSlots),
		words: make([]uint64, lineSetMinSlots),
		mask:  lineSetMinSlots - 1,
	}
}

// hash mixes the page index so sequential pages scatter across slots
// (SplitMix64 finalizer).
func lineSetHash(page uint64) uint64 {
	page ^= page >> 30
	page *= 0xbf58476d1ce4e5b9
	page ^= page >> 27
	page *= 0x94d049bb133111eb
	page ^= page >> 31
	return page
}

// Add inserts the line.
//
//alloyvet:hotpath
func (s *LineSet) Add(l Line) {
	page := uint64(l) >> PageShift
	bit := uint64(1) << (uint64(l) & (1<<PageShift - 1))
	key := page + 1
	i := lineSetHash(page) & s.mask
	for {
		switch s.pages[i] {
		case key:
			s.words[i] |= bit
			return
		case 0:
			// Keep the load factor under 3/4 so probes stay short.
			if 4*(s.used+1) > 3*len(s.pages) {
				s.grow()
				i = lineSetHash(page) & s.mask
				continue
			}
			s.pages[i] = key
			s.words[i] = bit
			s.used++
			return
		}
		i = (i + 1) & s.mask
	}
}

// Contains reports whether the line was added.
func (s *LineSet) Contains(l Line) bool {
	page := uint64(l) >> PageShift
	bit := uint64(1) << (uint64(l) & (1<<PageShift - 1))
	key := page + 1
	i := lineSetHash(page) & s.mask
	for {
		switch s.pages[i] {
		case key:
			return s.words[i]&bit != 0
		case 0:
			return false
		}
		i = (i + 1) & s.mask
	}
}

// Count returns the number of unique lines added.
func (s *LineSet) Count() uint64 {
	var n int
	for i, key := range s.pages {
		if key != 0 {
			n += bits.OnesCount64(s.words[i])
		}
	}
	return uint64(n)
}

func (s *LineSet) grow() {
	oldPages, oldWords := s.pages, s.words
	size := 2 * len(oldPages)
	s.pages = make([]uint64, size)
	s.words = make([]uint64, size)
	s.mask = uint64(size - 1)
	for i, key := range oldPages {
		if key == 0 {
			continue
		}
		j := lineSetHash(key-1) & s.mask
		for s.pages[j] != 0 {
			j = (j + 1) & s.mask
		}
		s.pages[j] = key
		s.words[j] = oldWords[i]
	}
}
