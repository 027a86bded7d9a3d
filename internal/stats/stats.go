// Package stats provides the lightweight statistics primitives used across
// the simulator: scalar counters, running means, latency histograms, and
// geometric-mean aggregation for speedup reporting (the paper reports
// averages across rate-mode workloads).
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct{ n uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Mean accumulates samples and reports their arithmetic mean.
type Mean struct {
	sum float64
	n   uint64
}

// Observe adds one sample.
func (m *Mean) Observe(v float64) { m.sum += v; m.n++ }

// N returns the number of samples observed.
func (m *Mean) N() uint64 { return m.n }

// Sum returns the total of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Value returns the mean, or 0 if no samples were observed.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Histogram is a fixed-width bucket latency histogram.
type Histogram struct {
	width   uint64
	buckets []uint64
	over    uint64
	mean    Mean
	max     uint64
}

// NewHistogram creates a histogram with nBuckets buckets of the given
// width. Both must be positive: a zero width would divide by zero on the
// first Observe, so invalid dimensions panic at the construction site
// where the bug is, not at the first sample.
func NewHistogram(width uint64, nBuckets int) *Histogram {
	if width == 0 {
		panic("stats: NewHistogram width must be positive")
	}
	if nBuckets <= 0 {
		panic(fmt.Sprintf("stats: NewHistogram nBuckets must be positive, got %d", nBuckets))
	}
	return &Histogram{width: width, buckets: make([]uint64, nBuckets)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.mean.Observe(float64(v))
	if v > h.max {
		h.max = v
	}
	idx := v / h.width
	if idx >= uint64(len(h.buckets)) {
		h.over++
		return
	}
	h.buckets[idx]++
}

// N returns the number of samples observed.
func (h *Histogram) N() uint64 { return h.mean.N() }

// Percentile returns an upper bound on the p-th percentile at bucket
// resolution. p is clamped to (0, 100]: out-of-range requests resolve to
// the first or last sample's bucket rather than an arbitrary edge (a
// target rank of zero used to satisfy the first cumulative check even
// when bucket 0 was empty, returning h.width for p <= 0).
func (h *Histogram) Percentile(p float64) uint64 {
	total := h.mean.N()
	if total == 0 {
		return 0
	}
	if p > 100 {
		p = 100
	}
	target := uint64(math.Ceil(p / 100 * float64(total)))
	if target < 1 {
		target = 1 // p <= 0 asks for the smallest sample, not rank zero
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			return (uint64(i) + 1) * h.width
		}
	}
	return h.max
}

// WriteText renders the histogram in the Prometheus text exposition
// format under the given metric name: cumulative _bucket series with le
// labels at bucket upper bounds, then _sum and _count. Empty buckets are
// skipped to keep dumps readable; the +Inf bucket is always present.
func (h *Histogram) WriteText(w io.Writer, name string) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	var cum uint64
	for i, b := range h.buckets {
		if b == 0 {
			continue
		}
		cum += b
		le := (uint64(i) + 1) * h.width
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	cum += h.over
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, h.mean.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.mean.N())
	return err
}

// GeoMean returns the geometric mean of positive values; zero or negative
// inputs are ignored. Returns 0 for an empty input.
func GeoMean(vs []float64) float64 {
	var sum float64
	var n int
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ArithMean returns the arithmetic mean, or 0 for an empty input.
func ArithMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Table is a simple fixed-column ASCII table builder used by the experiment
// harness to render the paper's tables and figure series.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Bars renders a horizontal ASCII bar chart: one row per (label, value),
// scaled so the longest bar spans width characters. Used by the
// experiment harness to echo the paper's bar figures in the terminal.
func Bars(labels []string, values []float64, width int) string {
	if len(labels) != len(values) || len(labels) == 0 || width <= 0 {
		return ""
	}
	maxLabel, maxVal := 0, 0.0
	for i, l := range labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
		if values[i] > maxVal {
			maxVal = values[i]
		}
	}
	if maxVal <= 0 {
		maxVal = 1
	}
	var b strings.Builder
	for i, l := range labels {
		n := int(values[i] / maxVal * float64(width))
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "%-*s |%s %0.3f\n", maxLabel, l, strings.Repeat("#", n), values[i])
	}
	return b.String()
}

// Stdev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two samples.
func Stdev(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := ArithMean(vs)
	var ss float64
	for _, v := range vs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vs)-1))
}
