package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTimeSeriesSampleAndExport(t *testing.T) {
	ts := NewTimeSeries(8)
	var a, b uint64
	ts.Counter("a_total", "", func() uint64 { return a })
	ts.Gauge("a_rate", "", func() float64 { return 1 }) // samplers skip gauges
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

	var js strings.Builder
	if err := ts.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Columns []string   `json:"columns"`
		Drops   uint64     `json:"drops"`
		Rows    [][]uint64 `json:"rows"`
	}
	if err := json.Unmarshal([]byte(js.String()), &parsed); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v\n%s", err, js.String())
	}
	if len(parsed.Columns) != 4 || parsed.Columns[2] != "a_total" {
		t.Fatalf("columns = %v", parsed.Columns)
	}
	if len(parsed.Rows) != 3 || parsed.Rows[2][3] != 3 {
		t.Fatalf("rows = %v", parsed.Rows)
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
	sb.Reset()
	if err := ts.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("nil JSON invalid: %s", sb.String())
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
		if err := ts.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if build() != build() {
		t.Fatal("identical series exported different bytes")
	}
}

func TestFlightRecorderKeepsNewest(t *testing.T) {
	fr := NewFlightRecorder(3, 0, 0)
	var v uint64
	fr.Counter("v", "", func() uint64 { return v })
	for i := 0; i < 7; i++ {
		v = uint64(100 + i)
		fr.Sample(uint64(i))
	}
	if fr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", fr.Len())
	}
	if fr.Drops() != 4 {
		t.Fatalf("Drops = %d, want 4", fr.Drops())
	}
	var sb strings.Builder
	if err := fr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Columns []string   `json:"columns"`
		Drops   uint64     `json:"drops"`
		Rows    [][]uint64 `json:"rows"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	// Oldest-first within the retained window: cycles 4,5,6.
	if len(parsed.Rows) != 3 || parsed.Rows[0][0] != 4 || parsed.Rows[2][0] != 6 {
		t.Fatalf("rows = %v, want cycles 4..6", parsed.Rows)
	}
	if parsed.Rows[2][1] != 106 {
		t.Fatalf("newest value = %d, want 106", parsed.Rows[2][1])
	}
}

func TestFlightRecorderSpansInDump(t *testing.T) {
	fr := NewFlightRecorder(4, 1, 8)
	fr.Counter("v", "", func() uint64 { return 7 })
	fr.Sample(100)
	trc := fr.Tracer()
	id := trc.Sample()
	trc.Span(id, SpanRead, 0, 42, 10, 5, true)
	var sb strings.Builder
	if err := fr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		SpansSampled uint64 `json:"spans_sampled"`
		Spans        []struct {
			Req  uint64 `json:"req"`
			Kind string `json:"kind"`
			Dur  uint64 `json:"dur"`
			Hit  int    `json:"hit"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if parsed.SpansSampled != 1 || len(parsed.Spans) != 1 {
		t.Fatalf("spans = %+v", parsed)
	}
	if s := parsed.Spans[0]; s.Req != 1 || s.Kind != "read" || s.Dur != 5 || s.Hit != 1 {
		t.Fatalf("span = %+v", s)
	}
}

// TestFlightRecorderDumpBytes pins a dump's exact bytes for a recorder
// whose epoch and span rings have both wrapped, and bounds the
// allocations of rendering it: formatting must not allocate per value.
func TestFlightRecorderDumpBytes(t *testing.T) {
	fr := NewFlightRecorder(3, 1, 2)
	var v uint64
	fr.Counter("reads_total", "", func() uint64 { return v })
	fr.Level("queue_depth", "", func() uint64 { return v % 7 })
	for i := uint64(0); i < 5; i++ {
		v = 1000*i + 3
		fr.Sample(64 * i)
	}
	trc := fr.Tracer()
	for i := 0; i < 3; i++ {
		trc.Span(trc.Sample(), SpanKind(i), int32(i), uint64(4096+i), uint64(100*i), uint64(40+i), i%2 == 0)
	}
	const want = `{"columns":["cycle","reads_total","queue_depth"],"drops":2,"rows":[
[128,2003,1],
[192,3003,0],
[256,4003,6]
],"spans_sampled":3,"spans":[
{"req":2,"kind":"predict","start":100,"dur":41,"core":1,"line":4097,"hit":0},
{"req":3,"kind":"dc.queue","start":200,"dur":42,"core":2,"line":4098,"hit":1}
]}
`
	var sb strings.Builder
	if err := fr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != want {
		t.Fatalf("dump:\n%s\nwant:\n%s", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		sb.Reset()
		if err := fr.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
	})
	// The render buffer and the builder's copy.
	if allocs > 2 {
		t.Fatalf("WriteJSON allocated %v times, want at most 2", allocs)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Counter("x", "", func() uint64 { return 1 })
	fr.Level("y", "", func() uint64 { return 1 })
	fr.Gauge("z", "", func() float64 { return 1 })
	fr.Sample(0)
	if fr.Len() != 0 || fr.Drops() != 0 || fr.Columns() != nil || fr.Tracer() != nil {
		t.Fatal("nil FlightRecorder should report empty state")
	}
	var sb strings.Builder
	if err := fr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(sb.String())) {
		t.Fatalf("nil dump invalid JSON: %s", sb.String())
	}
}

func TestTimeSeriesSampleZeroAllocs(t *testing.T) {
	ts := NewTimeSeries(1 << 12)
	var v uint64
	ts.Counter("v", "", func() uint64 { return v })
	ts.Sample(0) // first call seals (allocates once)
	allocs := testing.AllocsPerRun(1000, func() {
		v++
		ts.Sample(v)
	})
	if allocs != 0 {
		t.Fatalf("TimeSeries.Sample allocs/op = %v, want 0", allocs)
	}

	fr := NewFlightRecorder(64, 0, 0)
	fr.Counter("v", "", func() uint64 { return v })
	fr.Sample(0)
	allocs = testing.AllocsPerRun(1000, func() {
		v++
		fr.Sample(v)
	})
	if allocs != 0 {
		t.Fatalf("FlightRecorder.Sample allocs/op = %v, want 0", allocs)
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
	if trc.RunID() != "r-abc123" {
		t.Fatalf("RunID = %q", trc.RunID())
	}
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
	if nt.RunID() != "" {
		t.Fatal("nil RunID should be empty")
	}
}
