package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAvgLatencyEndpoints(t *testing.T) {
	if AvgLatency(0, 0.1) != 1 {
		t.Fatal("0% hit rate should give memory latency")
	}
	if !approx(AvgLatency(1, 0.1), 0.1, 1e-12) {
		t.Fatal("100% hit rate should give hit latency")
	}
}

func TestPaperSection1Examples(t *testing.T) {
	// §1: fast cache (0.1), base hit rate 50% → avg 0.55.
	if !approx(AvgLatency(0.5, 0.1), 0.55, 1e-9) {
		t.Fatalf("base avg = %v, want 0.55", AvgLatency(0.5, 0.1))
	}
	// Optimization A: hit latency 0.14, hit rate 70% → avg 0.398 ≈ 0.40.
	if got := AvgLatency(0.7, 0.14); !approx(got, 0.40, 0.01) {
		t.Fatalf("opt-A avg = %v, want ~0.40", got)
	}
	// BEHR for A on the fast cache is 52%.
	behr, ok := BreakEvenHitRate(0.5, 0.1, 1.4)
	if !ok || !approx(behr, 0.52, 0.01) {
		t.Fatalf("fast-cache BEHR = %v (ok=%v), want ~0.52", behr, ok)
	}
	// Slow cache (0.5): base avg 0.75; A at hit rate 70% gives 0.79.
	if got := AvgLatency(0.5, 0.5); !approx(got, 0.75, 1e-9) {
		t.Fatalf("slow base avg = %v, want 0.75", got)
	}
	if got := AvgLatency(0.7, 0.7); !approx(got, 0.79, 0.001) {
		t.Fatalf("slow opt-A avg = %v, want 0.79", got)
	}
	// Figure 1(b): BEHR is 83% for the slow cache.
	behr, ok = BreakEvenHitRate(0.5, 0.5, 1.4)
	if !ok || !approx(behr, 0.83, 0.01) {
		t.Fatalf("slow-cache BEHR = %v, want ~0.83", behr)
	}
	// §1: with base hit rate 60%, A needs 100% hit rate just to break even.
	behr, _ = BreakEvenHitRate(0.6, 0.5, 1.4)
	if !approx(behr, 1.0, 0.01) {
		t.Fatalf("60%% base BEHR = %v, want ~1.0", behr)
	}
}

func TestBreakEvenMonotoneInBaseHitRate(t *testing.T) {
	f := func(raw uint8) bool {
		h1 := float64(raw%50) / 100
		h2 := h1 + 0.1
		b1, _ := BreakEvenHitRate(h1, 0.5, 1.4)
		b2, _ := BreakEvenHitRate(h2, 0.5, 1.4)
		return b2 >= b1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakEvenDegenerate(t *testing.T) {
	// latFactor * hitLatency == 1 makes the equation singular.
	if _, ok := BreakEvenHitRate(0.5, 0.5, 2.0); ok {
		t.Fatal("singular break-even reported as achievable")
	}
}

func TestBreakEvenNearSingular(t *testing.T) {
	// Just off the singularity the division produces astronomically large
	// (or, one ulp away, infinite) hit rates; none are achievable and none
	// may leak out as ±Inf or NaN.
	for _, latFactor := range []float64{2 + 1e-13, 2 - 1e-13, 2 + 1e-10, 2 - 1e-10} {
		h, ok := BreakEvenHitRate(0.5, 0.5, latFactor)
		if ok {
			t.Fatalf("near-singular latFactor %v reported achievable (h=%v)", latFactor, h)
		}
		if math.IsNaN(h) || math.IsInf(h, 0) {
			t.Fatalf("near-singular latFactor %v returned non-finite hit rate %v", latFactor, h)
		}
	}
}

func TestBreakEvenRejectsNonFiniteInputs(t *testing.T) {
	for _, tc := range []struct{ base, lat, factor float64 }{
		{math.NaN(), 0.5, 1.4},
		{0.5, math.NaN(), 1.4},
		{0.5, 0.5, math.NaN()},
		{0.5, math.Inf(1), 1.4},
	} {
		h, ok := BreakEvenHitRate(tc.base, tc.lat, tc.factor)
		if ok {
			t.Fatalf("BreakEvenHitRate(%v, %v, %v) reported achievable", tc.base, tc.lat, tc.factor)
		}
		if math.IsNaN(h) || math.IsInf(h, 0) {
			t.Fatalf("BreakEvenHitRate(%v, %v, %v) leaked non-finite %v", tc.base, tc.lat, tc.factor, h)
		}
	}
}

// TestFig1CurveShape: Figure 1's curve, AvgLatency over hit rates 0 to
// 1, starts at memory latency and falls as the hit rate rises.
func TestFig1CurveShape(t *testing.T) {
	prev := AvgLatency(0, 0.1)
	if prev != 1 {
		t.Fatalf("AvgLatency at hit rate 0 = %v, want memory latency 1", prev)
	}
	for i := 1; i <= 10; i++ {
		h := float64(i) / 10
		got := AvgLatency(h, 0.1)
		if got >= prev {
			t.Fatalf("AvgLatency(%v) = %v, not below %v at the lower hit rate", h, got, prev)
		}
		prev = got
	}
}

func TestFig3MatchesPaper(t *testing.T) {
	rows := Fig3Breakdowns(PaperTiming())
	byName := map[string]Breakdown{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	// Baseline: X=52, Y=88 (§2.4).
	b := byName["Baseline (no DRAM cache)"]
	if b.HitX != 52 || b.HitY != 88 {
		t.Fatalf("baseline = %+v, want X 52 / Y 88", b)
	}
	// SRAM-Tag hit: 24 + 40 = 64 for both X and Y.
	s := byName["SRAM-Tag"]
	if s.HitX != 64 || s.HitY != 64 {
		t.Fatalf("SRAM-Tag hit = %+v, want 64", s)
	}
	if s.MissY != 112 { // 24 + 88
		t.Fatalf("SRAM-Tag missY = %v, want 112", s.MissY)
	}
	// LH-Cache hit: 24 + 49 + 22 = 95..96 cycles (§2.4 says ~96).
	lh := byName["LH-Cache (MissMap)"]
	if lh.HitX < 95 || lh.HitX > 96 {
		t.Fatalf("LH hit = %v, want 95-96", lh.HitX)
	}
	// Alloy: row hit 23, row miss 41.
	al := byName["Alloy Cache"]
	if al.HitX != 23 || al.HitY != 41 {
		t.Fatalf("Alloy hit = %+v, want 23/41", al)
	}
	// IDEAL-LO: 22 and 40, misses unchanged at 52/88.
	id := byName["IDEAL-LO"]
	if id.HitX != 22 || id.HitY != 40 || id.MissX != 52 || id.MissY != 88 {
		t.Fatalf("IDEAL-LO = %+v", id)
	}
}

func TestTable4MatchesPaper(t *testing.T) {
	rows := Table4Bandwidth()
	get := func(name string) Bandwidth {
		for _, r := range rows {
			if r.Structure == name {
				return r
			}
		}
		t.Fatalf("missing row %q", name)
		return Bandwidth{}
	}
	if get("Off-chip Memory").EffectiveBW != 1 {
		t.Fatal("off-chip effective bandwidth should be 1x")
	}
	if get("SRAM-Tag").EffectiveBW != 8 {
		t.Fatal("SRAM-Tag should keep the full 8x")
	}
	// LH-Cache: 8 * 64/272 ≈ 1.88 ("less than 2x").
	if lh := get("LH-Cache").EffectiveBW; lh < 1.8 || lh > 2.0 {
		t.Fatalf("LH effective bandwidth = %v, want ~1.9", lh)
	}
	// Alloy: 8 * 64/80 = 6.4.
	if al := get("Alloy Cache").EffectiveBW; !approx(al, 6.4, 1e-9) {
		t.Fatalf("Alloy effective bandwidth = %v, want 6.4", al)
	}
}

func TestBreakdownString(t *testing.T) {
	s := Fig3Breakdowns(PaperTiming())[0].String()
	if s == "" {
		t.Fatal("empty breakdown string")
	}
}
