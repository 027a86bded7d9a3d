package memaddr

import (
	"testing"
	"testing/quick"
)

func TestModNonPow2(t *testing.T) {
	// 28 sets per row is the Alloy Cache layout.
	if got := Line(28).Mod(28); got != 0 {
		t.Errorf("28 mod 28 = %d, want 0", got)
	}
	if got := Line(29).Mod(28); got != 1 {
		t.Errorf("29 mod 28 = %d, want 1", got)
	}
	// Consecutive lines map to consecutive residues — this is what gives
	// the Alloy Cache its row-buffer locality.
	for l := Line(0); l < 1000; l++ {
		a, b := l.Mod(3670016), (l + 1).Mod(3670016)
		if b != a+1 {
			t.Fatalf("consecutive lines %d,%d map to non-consecutive sets %d,%d", l, l+1, a, b)
		}
	}
}

func TestFoldXORWidth(t *testing.T) {
	f := func(v uint64) bool {
		return FoldXOR(v, 8) < 256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFoldXORDeterministic(t *testing.T) {
	a := FoldXOR(0xdeadbeefcafebabe, 8)
	b := FoldXOR(0xdeadbeefcafebabe, 8)
	if a != b {
		t.Fatalf("FoldXOR not deterministic: %d vs %d", a, b)
	}
}

func TestFoldXORSpreads(t *testing.T) {
	// Different PCs should not all collapse to one bucket.
	seen := map[uint64]bool{}
	for pc := uint64(0x400000); pc < 0x400000+1024*4; pc += 4 {
		seen[FoldXOR(pc, 8)] = true
	}
	if len(seen) < 128 {
		t.Fatalf("folded-XOR of 1024 PCs hit only %d of 256 buckets", len(seen))
	}
}

func TestFoldXOREdges(t *testing.T) {
	if FoldXOR(0xffff, 0) != 0 {
		t.Error("bits=0 should yield 0")
	}
	if FoldXOR(42, 64) != 42 {
		t.Error("bits=64 should be identity")
	}
	if FoldXOR(42, 100) != 42 {
		t.Error("bits>64 should be identity")
	}
}

func TestPageScatterBijectiveOnPages(t *testing.T) {
	// Distinct pages map to distinct pages (odd-multiplier permutation).
	seen := map[Line]bool{}
	for p := uint64(0); p < 50000; p++ {
		out := PageScatter(Line(p << PageShift))
		if out&(1<<PageShift-1) != 0 {
			t.Fatalf("page base %d scattered to unaligned %d", p, out)
		}
		if seen[out] {
			t.Fatalf("page collision at %d", p)
		}
		seen[out] = true
	}
}

func TestPageScatterDeterministic(t *testing.T) {
	f := func(l uint64) bool {
		line := Line(l % (1 << 50))
		return PageScatter(line) == PageScatter(line)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageGatherInvertsPageScatter(t *testing.T) {
	if m, g := uint64(scatterMult), uint64(gatherMult); m*g != 1 {
		t.Fatalf("multipliers %#x and %#x are not inverses mod 2^64", m, g)
	}
	check := func(l Line) {
		t.Helper()
		if got := PageGather(PageScatter(l)); got != l {
			t.Fatalf("PageGather(PageScatter(%#x)) = %#x", uint64(l), uint64(got))
		}
		if got := PageScatter(PageGather(l)); got != l {
			t.Fatalf("PageScatter(PageGather(%#x)) = %#x", uint64(l), uint64(got))
		}
	}
	for _, l := range []Line{0, 1, 1<<PageShift - 1, 1 << PageShift, 1<<PageShift + 1, 1<<63 - 1 - (1<<PageShift - 1), 1<<63 - 1} {
		check(l)
	}
	x := uint64(0x243F6A8885A308D3) // splitmix64 state
	for i := 0; i < 1_000_000; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		l := Line(z >> 1) // below 2^63
		check(l)
		// The first and last line of its page.
		check(l &^ (1<<PageShift - 1))
		check(l | (1<<PageShift - 1))
	}
}
