package trace

import (
	"reflect"
	"testing"
	"testing/quick"

	"alloysim/internal/memaddr"
)

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{Name: "empty"},
		{Name: "zeroWeight", Components: []Component{{Kind: Rand, Weight: 0, RegionLines: 10, PCs: 1}}},
		{Name: "zeroRegion", Components: []Component{{Kind: Rand, Weight: 1, RegionLines: 0, PCs: 1}}},
		{Name: "zeroStride", Components: []Component{{Kind: Stride, Weight: 1, RegionLines: 10, StrideLines: 0, PCs: 1}}},
		{Name: "zeroPCs", Components: []Component{{Kind: Rand, Weight: 1, RegionLines: 10, PCs: 0}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("profile %q accepted, want error", p.Name)
		}
	}
}

func TestAllProfilesValid(t *testing.T) {
	all := All()
	if len(all) != 24 {
		t.Fatalf("suite has %d profiles, want 24 (10 intensive + 14 others)", len(all))
	}
	for _, p := range all {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", p.Name, err)
		}
		if _, err := p.Build(1, 64, 0); err != nil {
			t.Errorf("profile %q does not build: %v", p.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("libquantum_r")
	if !ok || p.Name != "libquantum_r" {
		t.Fatal("ByName failed for libquantum_r")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName found nonexistent profile")
	}
}

// TestByNameHandsOutCopies: a lookup copies one Components slice out of
// the once-built suite and allocates nothing else, and a caller that
// changes its profile leaves the next lookup as it was.
func TestByNameHandsOutCopies(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { ByName("gobmk_r") }); n > 1 {
		t.Errorf("ByName allocated %.0f times, want at most 1", n)
	}
	want, _ := ByName("mcf_r")
	p, _ := ByName("mcf_r")
	p.GapMean++
	p.Components[0].Weight = 9
	p.Components = append(p.Components, Component{Kind: Stream, Weight: 1, RegionLines: 1})
	if got, _ := ByName("mcf_r"); !reflect.DeepEqual(got, want) {
		t.Fatalf("a mutated lookup changed the next one: %+v, want %+v", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	p, _ := ByName("mcf_r")
	a := p.MustBuild(7, 64, 0)
	b := p.MustBuild(7, 64, 0)
	for i := 0; i < 10000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("streams diverged at ref %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	p, _ := ByName("mcf_r")
	a := p.MustBuild(1, 64, 0)
	b := p.MustBuild(2, 64, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Line == b.Next().Line {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical lines", same)
	}
}

func TestBaseOffsetsDisjoint(t *testing.T) {
	// Rate mode: copies at different bases must never touch each other's
	// lines, given bases separated by the footprint.
	p, _ := ByName("omnetpp_r")
	foot := memaddr.Line(p.FootprintLines()/64 + 10)
	a := p.MustBuild(1, 64, 0)
	b := p.MustBuild(2, 64, foot)
	seenA := map[memaddr.Line]bool{}
	for i := 0; i < 20000; i++ {
		seenA[a.Next().Line] = true
	}
	for i := 0; i < 20000; i++ {
		if r := b.Next(); seenA[r.Line] {
			t.Fatalf("copies overlap at line %d", r.Line)
		}
	}
}

func TestStreamIsSequential(t *testing.T) {
	p := Profile{
		Name: "s", GapMean: 0, BurstMean: 1000, NoV2P: true,
		Components: []Component{{Kind: Stream, Weight: 1, RegionLines: 1000, PCs: 2}},
	}
	g := p.MustBuild(3, 1, 100)
	prev := g.Next().Line
	for i := 0; i < 500; i++ {
		cur := g.Next().Line
		if cur != prev+1 && cur != 100 { // wrap allowed
			t.Fatalf("stream jumped from %d to %d", prev, cur)
		}
		prev = cur
	}
}

func TestStreamWraps(t *testing.T) {
	p := Profile{
		Name: "s", BurstMean: 10, NoV2P: true,
		Components: []Component{{Kind: Stream, Weight: 1, RegionLines: 64, PCs: 1}},
	}
	g := p.MustBuild(3, 1, 0)
	seen := map[memaddr.Line]int{}
	for i := 0; i < 200; i++ {
		seen[g.Next().Line]++
	}
	if len(seen) != 64 {
		t.Fatalf("stream over 64 lines touched %d lines", len(seen))
	}
}

func TestRefsStayInFootprint(t *testing.T) {
	f := func(seed uint64) bool {
		p, _ := ByName("gcc_r")
		p.NoV2P = true
		scale := uint64(64)
		g := p.MustBuild(seed, scale, 1000)
		// Upper bound: base + sum of scaled regions (+1 per region for
		// rounding).
		var limit memaddr.Line = 1000
		for _, c := range p.Components {
			l := c.RegionLines / scale
			if l == 0 {
				l = 1
			}
			limit += memaddr.Line(l)
		}
		for i := 0; i < 5000; i++ {
			r := g.Next()
			if r.Line < 1000 || r.Line >= limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFraction(t *testing.T) {
	p := Profile{
		Name: "w", BurstMean: 10,
		Components: []Component{{Kind: Rand, Weight: 1, RegionLines: 1 << 20, PCs: 4, WriteFrac: 0.4}},
	}
	g := p.MustBuild(5, 1, 0)
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.35 || frac > 0.45 {
		t.Fatalf("write fraction %v, want ~0.4", frac)
	}
}

func TestGapMean(t *testing.T) {
	p := Profile{
		Name: "g", GapMean: 30, BurstMean: 10,
		Components: []Component{{Kind: Rand, Weight: 1, RegionLines: 1000, PCs: 4}},
	}
	g := p.MustBuild(5, 1, 0)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(g.Next().Gap)
	}
	mean := sum / n
	if mean < 27 || mean > 33 {
		t.Fatalf("gap mean %v, want ~30", mean)
	}
}

func TestPCsPerComponentDistinct(t *testing.T) {
	p := Profile{
		Name: "pc", BurstMean: 5, NoV2P: true,
		Components: []Component{
			{Kind: Stream, Weight: 1, RegionLines: 100, PCs: 4},
			{Kind: Rand, Weight: 1, RegionLines: 100, PCs: 4},
		},
	}
	g := p.MustBuild(5, 1, 0)
	pcsByRegion := map[bool]map[uint64]bool{false: {}, true: {}}
	for i := 0; i < 10000; i++ {
		r := g.Next()
		inSecond := r.Line >= 100
		pcsByRegion[inSecond][r.PC] = true
	}
	for _, pcA := range []bool{false} {
		for pc := range pcsByRegion[pcA] {
			if pcsByRegion[!pcA][pc] {
				t.Fatalf("PC %#x used by both components", pc)
			}
		}
	}
	if len(pcsByRegion[false]) != 4 || len(pcsByRegion[true]) != 4 {
		t.Fatalf("PC counts %d/%d, want 4/4", len(pcsByRegion[false]), len(pcsByRegion[true]))
	}
}

func TestScaleShrinksFootprint(t *testing.T) {
	p, _ := ByName("bwaves_r")
	p.NoV2P = true
	gBig := p.MustBuild(1, 1, 0)
	gSmall := p.MustBuild(1, 256, 0)
	maxBig, maxSmall := memaddr.Line(0), memaddr.Line(0)
	for i := 0; i < 50000; i++ {
		if l := gBig.Next().Line; l > maxBig {
			maxBig = l
		}
		if l := gSmall.Next().Line; l > maxSmall {
			maxSmall = l
		}
	}
	if maxSmall*16 > maxBig {
		t.Fatalf("scale 256 footprint (%d) not much smaller than scale 1 (%d)", maxSmall, maxBig)
	}
}

func TestStrideCoversRegion(t *testing.T) {
	p := Profile{
		Name: "st", BurstMean: 1000, NoV2P: true,
		Components: []Component{{Kind: Stride, Weight: 1, RegionLines: 100, StrideLines: 7, PCs: 2}},
	}
	g := p.MustBuild(5, 1, 0)
	seen := map[memaddr.Line]bool{}
	for i := 0; i < 5000; i++ {
		seen[g.Next().Line] = true
	}
	if len(seen) < 50 {
		t.Fatalf("stride touched only %d/100 lines", len(seen))
	}
}

func TestKindString(t *testing.T) {
	if Stream.String() != "stream" || Stride.String() != "stride" || Rand.String() != "rand" {
		t.Fatal("Kind String() wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestMemoryIntensiveOrder(t *testing.T) {
	mi := MemoryIntensive()
	if len(mi) != 10 {
		t.Fatalf("MemoryIntensive has %d entries, want 10", len(mi))
	}
	if mi[0].Name != "mcf_r" || mi[9].Name != "libquantum_r" {
		t.Fatalf("Table 3 ordering broken: first %q last %q", mi[0].Name, mi[9].Name)
	}
	// Table 3 is sorted by perfect-L3 speedup, descending.
	for i := 1; i < len(mi); i++ {
		if mi[i].PaperPerfL3 > mi[i-1].PaperPerfL3 {
			t.Fatalf("profiles not sorted by PaperPerfL3 at %d", i)
		}
	}
}

func TestPageRunLocality(t *testing.T) {
	p := Profile{
		Name: "run", BurstMean: 50, NoV2P: true,
		Components: []Component{{Kind: Rand, Weight: 1, RegionLines: 1 << 16, PCs: 4, PageRun: 4}},
	}
	g := p.MustBuild(9, 1, 0)
	consecutive := 0
	prev := g.Next().Line
	const n = 20000
	for i := 0; i < n; i++ {
		cur := g.Next().Line
		if cur == prev+1 {
			consecutive++
		}
		prev = cur
	}
	frac := float64(consecutive) / n
	// Mean run length 4 => ~3 of every 4 refs continue a run.
	if frac < 0.5 || frac > 0.85 {
		t.Fatalf("page-run consecutive fraction %.2f, want ~0.7", frac)
	}
}

func TestNoPageRunNoLocality(t *testing.T) {
	p := Profile{
		Name: "norun", BurstMean: 50, NoV2P: true,
		Components: []Component{{Kind: Rand, Weight: 1, RegionLines: 1 << 16, PCs: 4}},
	}
	g := p.MustBuild(9, 1, 0)
	consecutive := 0
	prev := g.Next().Line
	for i := 0; i < 20000; i++ {
		cur := g.Next().Line
		if cur == prev+1 {
			consecutive++
		}
		prev = cur
	}
	if consecutive > 100 {
		t.Fatalf("uniform Rand produced %d consecutive pairs", consecutive)
	}
}

func TestSkewConcentratesOnFirstSubranges(t *testing.T) {
	p := Profile{
		Name: "skew", BurstMean: 50, NoV2P: true,
		Components: []Component{{Kind: Rand, Weight: 1, RegionLines: 16000, PCs: 16, Skew: 3}},
	}
	g := p.MustBuild(9, 1, 0)
	counts := make([]int, 16)
	for i := 0; i < 50000; i++ {
		r := g.Next()
		counts[int(r.Line)/1000]++
	}
	if counts[0] < 10*counts[8] {
		t.Fatalf("skew 3 not concentrated: subrange0=%d subrange8=%d", counts[0], counts[8])
	}
	// Monotone-ish decay across the first half.
	if counts[0] < counts[1] || counts[1] < counts[4] {
		t.Fatalf("skew not decaying: %v", counts)
	}
}

func TestSkewSubrangePCOwnership(t *testing.T) {
	// Each skewed subrange must be touched only by its owning PC.
	p := Profile{
		Name: "own", BurstMean: 50, NoV2P: true,
		Components: []Component{{Kind: Rand, Weight: 1, RegionLines: 1600, PCs: 16, Skew: 2}},
	}
	g := p.MustBuild(9, 1, 0)
	owner := map[uint64]memaddr.Line{} // pc -> subrange index seen
	for i := 0; i < 30000; i++ {
		r := g.Next()
		sub := r.Line / 100
		if prev, ok := owner[r.PC]; ok && prev != sub {
			t.Fatalf("PC %#x touched subranges %d and %d", r.PC, prev, sub)
		}
		owner[r.PC] = sub
	}
	if len(owner) < 8 {
		t.Fatalf("only %d PCs observed", len(owner))
	}
}

func TestV2PPreservesPageOffsets(t *testing.T) {
	// Lines within one 64-line page stay contiguous under the scatter.
	base := memaddr.Line(12345 << memaddr.PageShift)
	first := memaddr.PageScatter(base)
	for off := memaddr.Line(1); off < 64; off++ {
		if memaddr.PageScatter(base+off) != first+off {
			t.Fatalf("offset %d not preserved by page scatter", off)
		}
	}
	// And distinct pages land in distinct places.
	if memaddr.PageScatter(base) == memaddr.PageScatter(base+64) {
		t.Fatal("adjacent pages collided")
	}
}

func TestCloneContinuesTheStream(t *testing.T) {
	profiles := All()
	raw, _ := ByName("lbm_r")
	raw.Name, raw.NoV2P = "lbm_r-nov2p", true
	profiles = append(profiles, raw)
	for _, p := range profiles {
		// at returns a fresh generator advanced past n references.
		at := func(n int) Generator {
			g := p.MustBuild(11, 64, 1<<20)
			for i := 0; i < n; i++ {
				g.Next()
			}
			return g
		}
		g := at(1000)
		c, ok := Clone(g)
		if !ok {
			t.Fatalf("%s: Clone refused a profile-built generator", p.Name)
		}
		twin := at(1000)
		for i := 0; i < 10000; i++ {
			if a, b := c.Next(), twin.Next(); a != b {
				t.Fatalf("%s: clone diverged at ref %d: %+v, want %+v", p.Name, i, a, b)
			}
		}
		// The clone's references left the original at the clone point.
		fresh := at(1000)
		for i := 0; i < 100; i++ {
			if a, b := g.Next(), fresh.Next(); a != b {
				t.Fatalf("%s: advancing the clone moved the original at ref %d: %+v, want %+v", p.Name, i, a, b)
			}
		}
		// Copy puts g's position into a generator of another seed and
		// position, in place.
		dst := p.MustBuild(5, 64, 1<<20)
		dst.Next()
		if !Copy(dst, g) {
			t.Fatalf("%s: Copy refused profile-built generators", p.Name)
		}
		if n := testing.AllocsPerRun(10, func() { Copy(dst, g) }); n != 0 {
			t.Fatalf("%s: Copy allocated %.0f times, want 0", p.Name, n)
		}
		twin = at(1100)
		for i := 0; i < 10000; i++ {
			if a, b := dst.Next(), twin.Next(); a != b {
				t.Fatalf("%s: copy diverged at ref %d: %+v, want %+v", p.Name, i, a, b)
			}
		}
	}
	// A generator that is not profile-built, even one wrapping a
	// profile-built generator, can be neither cloned nor copied.
	g := All()[0].MustBuild(1, 64, 0)
	other := struct{ Generator }{All()[0].MustBuild(1, 64, 0)}
	if _, ok := Clone(other); ok {
		t.Fatal("Clone accepted a generator that is not profile-built")
	}
	if Copy(g, other) || Copy(other, g) {
		t.Fatal("Copy accepted a generator that is not profile-built")
	}
}

func TestCaptureLength(t *testing.T) {
	p, _ := ByName("sphinx_r")
	refs := Capture(p.MustBuild(1, 64, 0), 123)
	if len(refs) != 123 {
		t.Fatalf("captured %d, want 123", len(refs))
	}
}
