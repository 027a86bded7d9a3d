package cache

import (
	"testing"

	"alloysim/internal/memaddr"
)

// BenchmarkAccess times one demand access in a warm cache whose geometry
// matches a Fig 9 tag array at 1/64 scale: the 16-way DIP L3, the 29-way
// LH-Cache and 32-way SRAM-Tag DIP arrays of a 256 MB cache, and
// direct-mapped, 2-way (Sec 6.7's Alloy) and 4-way LRU arrays of an
// Alloy-sized capacity, which bracket swarMinAssoc. Three accesses in four
// stay within an eighth of the footprint, so hits, misses and evictions
// all occur.
func BenchmarkAccess(b *testing.B) {
	for _, g := range []struct {
		name        string
		sets, assoc int
		policy      string
	}{
		{"l3-16way-dip", 128, 16, "dip"},
		{"lh-29way-dip", 2048, 29, "dip"},
		{"sram-32way-dip", 2048, 32, "dip"},
		{"dm-lru", 57344, 1, "lru"},
		{"2way-lru", 28672, 2, "lru"},
		{"4way-lru", 14336, 4, "lru"},
	} {
		b.Run(g.name, func(b *testing.B) {
			c := MustNew(Config{Sets: g.sets, Assoc: g.assoc, Policy: g.policy})
			span := uint64(4 * c.Config().Lines())
			x := uint64(1)
			next := func() memaddr.Line {
				x = x*6364136223846793005 + 1442695040888963407
				r := x >> 20
				if r&3 != 0 {
					return memaddr.Line((r >> 2) % (span / 8))
				}
				return memaddr.Line((r >> 2) % span)
			}
			for i := 0; i < 4*c.Config().Lines(); i++ {
				c.Access(next(), false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(next(), i&7 == 0)
			}
		})
	}
}
