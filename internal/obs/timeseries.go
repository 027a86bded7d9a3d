package obs

import (
	"fmt"
	"io"
	"strings"
)

// column is one registered column: a metric name plus the closure that
// reads its current value.
type column struct {
	name string
	read func() uint64
}

// TimeSeries samples registered columns at fixed cycle epochs into one
// row-major buffer that grows by rows, doubling from firstRows up to its
// capacity, so a short run allocates for the rows it keeps rather than
// for the capacity. It is built on the same two contracts as Tracer:
//
//   - Zero overhead when off: a nil *TimeSeries is valid and every method
//     is a nil-safe early return.
//   - Determinism when on: sampling happens at fixed epoch boundaries
//     (the engine's 2^16-cycle cancellation quantum) on the simulation
//     goroutine, so the same configuration exports byte-identical series
//     across runs.
//
// The buffer keeps the OLDEST rows when capacity is exceeded — dropping
// the newest preserves epoch alignment of what is kept (row i is always
// epoch i) — and Drops() reports how many samples were discarded so
// exports can say so. Single-owner like Tracer: the simulation goroutine
// samples, everyone else reads after the run.
type TimeSeries struct {
	cols   []column
	data   []uint64 // row-major: len(cycles) rows of len(cols); nil until the first sample
	cycles []uint64 // one per allocated row
	cap    int      // the most rows the series keeps
	n      int      // rows retained
	drops  uint64
}

// firstRows is how many rows a TimeSeries allocates at its first sample.
const firstRows = 16

// NewTimeSeries creates a sampler holding up to capacity epoch rows
// (default 1<<14 if nonpositive — at the 2^16-cycle quantum that covers
// a billion-cycle run).
func NewTimeSeries(capacity int) *TimeSeries {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	return &TimeSeries{cap: capacity}
}

// Counter adds a column read through read; the help text is the
// registry's and is not kept. Registration is cold-path and must finish
// before the first sample; names follow the Registry charset and
// duplicates panic, mirroring Registry.register. Implements Exporter.
func (t *TimeSeries) Counter(name, help string, read func() uint64) {
	if t == nil {
		return
	}
	if t.data != nil {
		panic("obs: column registered after sampling started: " + name)
	}
	if !validName(name) {
		panic("obs: invalid column name: " + name)
	}
	for _, col := range t.cols {
		if col.name == name {
			panic("obs: duplicate column: " + name)
		}
	}
	t.cols = append(t.cols, column{name: name, read: read})
}

// Level adds a column, exactly like Counter. Implements Exporter.
func (t *TimeSeries) Level(name, help string, read func() uint64) { t.Counter(name, help, read) }

// Gauge is a no-op: readers derive rates from epoch deltas. Implements
// Exporter.
func (t *TimeSeries) Gauge(name, help string, read func() float64) {}

// Sample snapshots every column at the given engine cycle. It allocates
// only when the buffer grows, which it does at the first sample and each
// time the kept rows double; it drops (and counts) samples past capacity.
//
//alloyvet:hotpath
func (t *TimeSeries) Sample(cycle uint64) {
	if t == nil {
		return
	}
	if t.n == t.cap {
		t.drops++
		return
	}
	if t.n == len(t.cycles) {
		t.grow(min(max(2*t.n, firstRows), t.cap))
	}
	t.write(t.n, cycle)
	t.n++
}

// grow reallocates the sample storage to hold rows rows, keeping the rows
// written so far. Kept out of line so the per-epoch path itself never
// allocates.
//
//go:noinline
func (t *TimeSeries) grow(rows int) {
	data := make([]uint64, rows*len(t.cols))
	copy(data, t.data)
	cycles := make([]uint64, rows)
	copy(cycles, t.cycles)
	t.data, t.cycles = data, cycles
}

// write snapshots every column into storage row r, which must exist, at
// the given cycle.
//
//alloyvet:hotpath
func (t *TimeSeries) write(r int, cycle uint64) {
	t.cycles[r] = cycle
	row := t.row(r)
	for i := range t.cols {
		row[i] = t.cols[i].read()
	}
}

// row returns storage row r.
func (t *TimeSeries) row(r int) []uint64 {
	return t.data[r*len(t.cols) : (r+1)*len(t.cols)]
}

// Len returns the number of retained epoch rows.
func (t *TimeSeries) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Drops returns how many samples were discarded because the buffer
// filled.
func (t *TimeSeries) Drops() uint64 {
	if t == nil {
		return 0
	}
	return t.drops
}

// Columns returns the registered column names in registration order.
func (t *TimeSeries) Columns() []string {
	if t == nil {
		return nil
	}
	names := make([]string, len(t.cols))
	for i, col := range t.cols {
		names[i] = col.name
	}
	return names
}

// Cycle returns the engine cycle of epoch row i.
func (t *TimeSeries) Cycle(row int) uint64 { return t.cycles[row] }

// Value returns column col at epoch row i.
func (t *TimeSeries) Value(row, col int) uint64 { return t.row(row)[col] }

// ColumnIndex returns the index of a named column, or -1.
func (t *TimeSeries) ColumnIndex(name string) int {
	if t == nil {
		return -1
	}
	for i, c := range t.cols {
		if c.name == name {
			return i
		}
	}
	return -1
}

// WriteCSV renders the series oldest-first with header
// "epoch,cycle,<columns...>". Hand-formatted: identical runs produce
// byte-identical files. Nil-safe: a disabled series writes just the
// minimal header.
func (t *TimeSeries) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("epoch,cycle")
	if t != nil {
		for _, c := range t.cols {
			sb.WriteByte(',')
			sb.WriteString(c.name)
		}
	}
	sb.WriteByte('\n')
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	for r := 0; r < t.n; r++ {
		sb.Reset()
		fmt.Fprintf(&sb, "%d,%d", r, t.cycles[r])
		for _, v := range t.row(r) {
			fmt.Fprintf(&sb, ",%d", v)
		}
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}
