package obs

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestTimeSeriesSampleAndExport(t *testing.T) {
	ts := NewTimeSeries(8)
	var a, b uint64
	ts.Counter("a_total", "", func() uint64 { return a })
	ts.Gauge("a_rate", "", func() float64 { return 1 }) // the series skips gauges
	ts.Level("b_total", "", func() uint64 { return b })

	for i := 0; i < 3; i++ {
		a += 10
		b += 1
		ts.Sample(uint64(i) << 16)
	}
	if ts.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ts.Len())
	}
	if got := ts.Value(1, 0); got != 20 {
		t.Fatalf("Value(1,0) = %d, want 20", got)
	}
	if got := ts.Cycle(2); got != 2<<16 {
		t.Fatalf("Cycle(2) = %d, want %d", got, 2<<16)
	}
	if got := ts.ColumnIndex("b_total"); got != 1 {
		t.Fatalf("ColumnIndex(b_total) = %d, want 1", got)
	}
	if got := ts.ColumnIndex("nope"); got != -1 {
		t.Fatalf("ColumnIndex(nope) = %d, want -1", got)
	}

	var csv strings.Builder
	if err := ts.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "epoch,cycle,a_total,b_total\n" +
		"0,0,10,1\n" +
		"1,65536,20,2\n" +
		"2,131072,30,3\n"
	if csv.String() != want {
		t.Fatalf("CSV mismatch:\ngot:\n%s\nwant:\n%s", csv.String(), want)
	}
}

func TestTimeSeriesKeepsOldestOnOverflow(t *testing.T) {
	ts := NewTimeSeries(2)
	var v uint64
	ts.Counter("v", "", func() uint64 { return v })
	for i := 0; i < 5; i++ {
		v = uint64(i)
		ts.Sample(uint64(i))
	}
	if ts.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ts.Len())
	}
	if ts.Drops() != 3 {
		t.Fatalf("Drops = %d, want 3", ts.Drops())
	}
	// Keep-first: row i is always epoch i, so retained rows are the
	// earliest samples.
	if ts.Value(0, 0) != 0 || ts.Value(1, 0) != 1 {
		t.Fatalf("retained values = %d,%d, want 0,1", ts.Value(0, 0), ts.Value(1, 0))
	}
}

func TestTimeSeriesNilSafe(t *testing.T) {
	var ts *TimeSeries
	ts.Counter("x", "", func() uint64 { return 1 })
	ts.Level("y", "", func() uint64 { return 1 })
	ts.Gauge("z", "", func() float64 { return 1 })
	ts.Sample(0)
	if ts.Len() != 0 || ts.Drops() != 0 || ts.Columns() != nil {
		t.Fatal("nil TimeSeries should report empty state")
	}
	if ts.ColumnIndex("x") != -1 {
		t.Fatal("nil ColumnIndex should be -1")
	}
	var sb strings.Builder
	if err := ts.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "epoch,cycle\n" {
		t.Fatalf("nil CSV = %q", sb.String())
	}
}

func TestTimeSeriesPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("duplicate", func() {
		ts := NewTimeSeries(4)
		ts.Counter("x", "", func() uint64 { return 0 })
		ts.Counter("x", "", func() uint64 { return 0 })
	})
	expectPanic("invalid name", func() {
		ts := NewTimeSeries(4)
		ts.Counter("bad name", "", func() uint64 { return 0 })
	})
	expectPanic("add after sample", func() {
		ts := NewTimeSeries(4)
		ts.Counter("x", "", func() uint64 { return 0 })
		ts.Sample(0)
		ts.Counter("y", "", func() uint64 { return 0 })
	})
}

func TestTimeSeriesExportByteIdentical(t *testing.T) {
	build := func() string {
		ts := NewTimeSeries(16)
		var v uint64
		ts.Counter("v_total", "", func() uint64 { return v })
		for i := 0; i < 10; i++ {
			v += uint64(i * i)
			ts.Sample(uint64(i) * 65536)
		}
		var sb strings.Builder
		if err := ts.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if build() != build() {
		t.Fatal("identical series exported different bytes")
	}
}

func TestTimeSeriesSampleZeroAllocs(t *testing.T) {
	ts := NewTimeSeries(1 << 12)
	var v uint64
	ts.Counter("v", "", func() uint64 { return v })
	// The first call allocates the first rows. The buffer's few doublings
	// within the runs below average to 0 per run; TestTimeSeriesGrowsByRows
	// counts them exactly.
	ts.Sample(0)
	allocs := testing.AllocsPerRun(1000, func() {
		v++
		ts.Sample(v)
	})
	if allocs != 0 {
		t.Fatalf("TimeSeries.Sample allocs/op = %v, want 0", allocs)
	}
}

// TestTimeSeriesGrowsByRows: a series of the default capacity allocates
// in proportion to the rows it keeps, not to its 16,384-row capacity, at
// the 105 columns and 21 to 78 rows of a phase run; growing keeps every
// row written before it, and Sample allocates nothing until the grown
// buffer is full.
func TestTimeSeriesGrowsByRows(t *testing.T) {
	const cols = 105
	for _, rows := range []int{1, 21, 78} {
		ts := NewTimeSeries(0)
		var v uint64
		for c := 0; c < cols; c++ {
			ts.Counter(fmt.Sprintf("c%d_total", c), "", func() uint64 { return v })
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rows; r++ {
			v = uint64(r)
			ts.Sample(uint64(r))
		}
		runtime.ReadMemStats(&after)
		kept := max(rows, firstRows) * (cols + 1) * 8
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(4*kept) {
			t.Errorf("%d rows: allocated %d bytes, want at most %d", rows, got, 4*kept)
		}
		for r := 0; r < rows; r++ {
			if ts.Cycle(r) != uint64(r) || ts.Value(r, 0) != uint64(r) || ts.Value(r, cols-1) != uint64(r) {
				t.Fatalf("%d rows: row %d holds cycle %d, values %d and %d", rows, r, ts.Cycle(r), ts.Value(r, 0), ts.Value(r, cols-1))
			}
		}
		runtime.ReadMemStats(&before)
		for ts.Len() < len(ts.cycles) {
			ts.Sample(0)
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%d rows: filling the grown buffer allocated %d times", rows, n)
		}
	}
}

func TestTracerRunIDMetadata(t *testing.T) {
	trc := NewTracer(1, 8)
	id := trc.Sample()
	trc.Span(id, SpanRead, 0, 1, 2, 3, false)

	var plain strings.Builder
	if err := trc.WriteChromeTrace(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "run_id") {
		t.Fatal("unset run ID must not appear in export")
	}

	trc.SetRunID("r-abc123")
	var tagged strings.Builder
	if err := trc.WriteChromeTrace(&tagged); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(tagged.String())) {
		t.Fatalf("tagged trace invalid JSON: %s", tagged.String())
	}
	if !strings.Contains(tagged.String(), `"run_id":"r-abc123"`) {
		t.Fatalf("tagged trace missing run_id: %s", tagged.String())
	}

	// Nil-safety.
	var nt *Tracer
	nt.SetRunID("x")
}
