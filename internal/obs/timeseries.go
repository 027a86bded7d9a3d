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

// columnStore is the state TimeSeries and FlightRecorder share: the
// registered columns and one row-major sample buffer allocated when the
// first row is written. The two samplers differ only in which row a
// sample lands in (keep the oldest rows vs. a ring of the newest) and in
// their export format.
type columnStore struct {
	cols   []column
	data   []uint64 // row-major: cap rows of len(cols); allocated once by seal
	cycles []uint64
	cap    int
	n      int // rows retained
	drops  uint64
}

// add registers a named column. Registration is cold-path and must
// finish before the first sample; names follow the Registry charset and
// duplicates panic, mirroring Registry.register.
func (c *columnStore) add(name string, read func() uint64) {
	if c.data != nil {
		panic("obs: column registered after sampling started: " + name)
	}
	if !validName(name) {
		panic("obs: invalid column name: " + name)
	}
	for _, col := range c.cols {
		if col.name == name {
			panic("obs: duplicate column: " + name)
		}
	}
	c.cols = append(c.cols, column{name: name, read: read})
}

// seal allocates the sample storage once the column set is final. Kept
// out of line so the per-epoch path itself never allocates.
//
//go:noinline
func (c *columnStore) seal() {
	c.data = make([]uint64, c.cap*len(c.cols))
	c.cycles = make([]uint64, c.cap)
}

// write snapshots every column into storage row r at the given cycle,
// sealing the storage on first use. Zero-alloc after the first call.
//
//alloyvet:hotpath
func (c *columnStore) write(r int, cycle uint64) {
	if c.data == nil {
		c.seal()
	}
	c.cycles[r] = cycle
	row := c.row(r)
	for i := range c.cols {
		row[i] = c.cols[i].read()
	}
}

// row returns storage row r.
func (c *columnStore) row(r int) []uint64 {
	return c.data[r*len(c.cols) : (r+1)*len(c.cols)]
}

// names returns the registered column names in registration order.
func (c *columnStore) names() []string {
	names := make([]string, len(c.cols))
	for i, col := range c.cols {
		names[i] = col.name
	}
	return names
}

// TimeSeries samples registered columns at fixed cycle epochs into one
// preallocated row-major buffer. It is built on the same two contracts as
// Tracer:
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
	columnStore
}

// NewTimeSeries creates a sampler holding up to capacity epoch rows
// (default 1<<14 if nonpositive — at the 2^16-cycle quantum that covers
// a billion-cycle run).
func NewTimeSeries(capacity int) *TimeSeries {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	return &TimeSeries{columnStore{cap: capacity}}
}

// Counter adds a column read through read; the help text is the
// registry's and is not kept. Implements Exporter.
func (t *TimeSeries) Counter(name, help string, read func() uint64) {
	if t != nil {
		t.add(name, read)
	}
}

// Level adds a column, exactly like Counter. Implements Exporter.
func (t *TimeSeries) Level(name, help string, read func() uint64) { t.Counter(name, help, read) }

// Gauge is a no-op: readers derive rates from epoch deltas. Implements
// Exporter.
func (t *TimeSeries) Gauge(name, help string, read func() float64) {}

// Sample snapshots every column at the given engine cycle. Zero-alloc
// after the first call; drops (and counts) samples past capacity.
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
	t.write(t.n, cycle)
	t.n++
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
	return t.names()
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

// WriteJSON renders the series as one object with a fixed field order:
// {"columns":[...],"drops":N,"rows":[[epoch,cycle,v...],...]}. Hand-
// formatted for byte-identical output, like WriteChromeTrace. Nil-safe.
func (t *TimeSeries) WriteJSON(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(`{"columns":["epoch","cycle"`)
	if t != nil {
		for _, c := range t.cols {
			fmt.Fprintf(&sb, ",%q", c.name)
		}
	}
	fmt.Fprintf(&sb, `],"drops":%d,"rows":[`, t.Drops())
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	if t != nil {
		for r := 0; r < t.n; r++ {
			sb.Reset()
			if r > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "\n[%d,%d", r, t.cycles[r])
			for _, v := range t.row(r) {
				fmt.Fprintf(&sb, ",%d", v)
			}
			sb.WriteByte(']')
			if _, err := io.WriteString(w, sb.String()); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}
