package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
}

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean should be 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		m.Observe(v)
	}
	if m.Value() != 2.5 {
		t.Fatalf("mean = %v, want 2.5", m.Value())
	}
	if m.N() != 4 || m.Sum() != 10 {
		t.Fatalf("N=%d Sum=%v, want 4 and 10", m.N(), m.Sum())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 10)
	for _, v := range []uint64{5, 15, 15, 95, 200} {
		h.Observe(v)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
	if h.max != 200 {
		t.Fatalf("max = %d, want 200", h.max)
	}
	wantMean := float64(5+15+15+95+200) / 5
	if math.Abs(h.mean.Value()-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", h.mean.Value(), wantMean)
	}
	if h.over != 1 {
		t.Fatalf("overflow count = %d, want 1", h.over)
	}
}

// TestHistogramRejectsInvalidDimensions is the regression test for the
// width==0 construction bug: the first Observe would divide by zero, so
// the constructor must refuse invalid dimensions up front.
func TestHistogramRejectsInvalidDimensions(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("zero width", func() { NewHistogram(0, 8) })
	mustPanic("zero buckets", func() { NewHistogram(8, 0) })
	mustPanic("negative buckets", func() { NewHistogram(8, -1) })

	// Valid dimensions keep working, including the smallest ones.
	h := NewHistogram(1, 1)
	h.Observe(0)
	h.Observe(7) // overflows into the catch-all, must not panic
	if h.N() != 2 {
		t.Fatalf("N = %d, want 2", h.N())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(1, 1000)
	for i := uint64(1); i <= 100; i++ {
		h.Observe(i)
	}
	p50 := h.Percentile(50)
	if p50 < 49 || p50 > 52 {
		t.Fatalf("p50 = %d, want ~50", p50)
	}
	p99 := h.Percentile(99)
	if p99 < 98 || p99 > 100 {
		t.Fatalf("p99 = %d, want ~99", p99)
	}
	var empty Histogram
	if empty.Percentile(50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestHistogramPercentileClampsP(t *testing.T) {
	// Regression: with bucket 0 empty, p <= 0 yielded target rank 0, which
	// the first cumulative check satisfied immediately — returning h.width
	// (10 here) even though no sample is anywhere near it.
	h := NewHistogram(10, 100)
	h.Observe(55) // bucket 5; buckets 0..4 empty
	for _, p := range []float64{0, -5, 0.0001} {
		if got := h.Percentile(p); got != 60 {
			t.Errorf("Percentile(%v) = %d, want 60 (bucket of the only sample)", p, got)
		}
	}
	if got := h.Percentile(200); got != 60 {
		t.Errorf("Percentile(200) = %d, want 60 (clamped to the last sample)", got)
	}
}

func TestHistogramWriteText(t *testing.T) {
	h := NewHistogram(10, 4)
	for _, v := range []uint64{5, 15, 15, 99} {
		h.Observe(v) // 99 overflows past 4 buckets of width 10
	}
	var b strings.Builder
	if err := h.WriteText(&b, "lat"); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE lat histogram\n" +
		"lat_bucket{le=\"10\"} 1\n" +
		"lat_bucket{le=\"20\"} 3\n" +
		"lat_bucket{le=\"+Inf\"} 4\n" +
		"lat_sum 134\n" +
		"lat_count 4\n"
	if b.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("GeoMean(1,4) = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) should be 0")
	}
	// Non-positive values are ignored.
	got = GeoMean([]float64{0, -3, 8, 2})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean ignoring non-positive = %v, want 4", got)
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var vs []float64
		for _, v := range raw {
			// Bound magnitudes so exp(log) rounding cannot overflow the
			// min/max envelope at float64 extremes.
			if v > 1e-100 && v < 1e100 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		g := GeoMean(vs)
		min, max := vs[0], vs[0]
		for _, v := range vs {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArithMean(t *testing.T) {
	if ArithMean(nil) != 0 {
		t.Fatal("ArithMean(nil) should be 0")
	}
	if got := ArithMean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("ArithMean = %v, want 4", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Design", "Speedup")
	tab.AddRow("LH-Cache", 1.087)
	tab.AddRow("Alloy", 1.35)
	s := tab.String()
	if !strings.Contains(s, "LH-Cache") || !strings.Contains(s, "1.09") {
		t.Fatalf("table missing content:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), s)
	}
}

func TestBars(t *testing.T) {
	out := Bars([]string{"a", "bb"}, []float64{1, 2}, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("bars produced %d lines", len(lines))
	}
	if !strings.Contains(lines[1], strings.Repeat("#", 10)) {
		t.Fatalf("max bar not full width: %q", lines[1])
	}
	if strings.Count(lines[0], "#") != 5 {
		t.Fatalf("half bar wrong: %q", lines[0])
	}
	if Bars([]string{"a"}, []float64{1, 2}, 10) != "" {
		t.Fatal("mismatched lengths accepted")
	}
	if Bars(nil, nil, 10) != "" {
		t.Fatal("empty input produced output")
	}
}

func TestStdev(t *testing.T) {
	if Stdev([]float64{5}) != 0 {
		t.Fatal("single sample stdev not 0")
	}
	got := Stdev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.138) > 0.01 {
		t.Fatalf("stdev = %v, want ~2.14", got)
	}
}
