package cache

import (
	"reflect"
	"testing"

	"alloysim/internal/memaddr"
)

// storeBytes is the size of the arrays a cache keeps: its tags,
// signatures, masks or direct-mapped words, and its policy's replacement
// state. It sums the backing array of every slice reachable from v
// through pointers, interfaces and struct fields.
func storeBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return storeBytes(v.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += storeBytes(v.Field(i))
		}
		return n
	case reflect.Slice:
		return v.Cap() * int(v.Type().Elem().Size())
	}
	return 0
}

// TestBytesPerLine pins the store layouts: one 8-byte word per
// direct-mapped set, and per DIP way an 8-byte tag, a signature byte and
// two 32-bit stamps, plus per set a valid and a dirty mask and each
// recency row's 8-byte least entry, and the signature row's 8 bytes of
// padding.
func TestBytesPerLine(t *testing.T) {
	for _, g := range []struct{ sets, assoc, want int }{
		{57344, 1, 8 * 57344},
		{28, 1, 8 * 28},
		{128, 16, 128*(17*16+32) + 8},
		{2048, 29, 2048*(17*29+32) + 8},
		{2048, 32, 2048*(17*32+32) + 8},
	} {
		policy := "dip"
		if g.assoc == 1 {
			policy = "lru"
		}
		c := MustNew(Config{Sets: g.sets, Assoc: g.assoc, Policy: policy})
		if got := storeBytes(reflect.ValueOf(c)); got != g.want {
			t.Errorf("%d sets x %d ways: %d bytes, want %d", g.sets, g.assoc, got, g.want)
		}
	}
}

// BenchmarkAccess times one demand access in a warm cache whose geometry
// matches a Fig 9 tag array at 1/64 scale: the 16-way DIP L3, the 29-way
// LH-Cache and 32-way SRAM-Tag DIP arrays of a 256 MB cache, and
// direct-mapped, 2-way (Sec 6.7's Alloy) and 4-way LRU arrays of an
// Alloy-sized capacity, which bracket swarMinAssoc. Three accesses in four
// stay within an eighth of the footprint, so hits, misses and evictions
// all occur. B/line is the store's bytes per line (storeBytes).
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
			b.ReportMetric(float64(storeBytes(reflect.ValueOf(c)))/float64(c.Config().Lines()), "B/line")
		})
	}
}
