package obs

import (
	"fmt"
	"io"
	"strings"
)

// ColumnSink is the registration half of phase-resolved telemetry: a
// component exposes its phase-sampled counters by handing the sink a
// read-back closure per column, exactly like Registry.RegisterCounterFunc
// but restricted to uint64 monotone counts (rates and ratios are derived
// by readers from epoch deltas, never sampled). Both TimeSeries and
// FlightRecorder implement it, so one RegisterTimeSeries method per
// component feeds either consumer.
type ColumnSink interface {
	AddColumn(name string, read func() uint64)
}

// tsColumn is one registered column: a metric name plus the closure that
// reads its current value. Shared by TimeSeries and FlightRecorder.
type tsColumn struct {
	name string
	read func() uint64
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
	cols   []tsColumn
	data   []uint64 // row-major: rows*len(cols); allocated once by seal
	cycles []uint64
	rows   int
	cap    int
	drops  uint64
}

// NewTimeSeries creates a sampler holding up to capacity epoch rows
// (default 1<<14 if nonpositive — at the 2^16-cycle quantum that covers
// a billion-cycle run).
func NewTimeSeries(capacity int) *TimeSeries {
	if capacity <= 0 {
		capacity = 1 << 14
	}
	return &TimeSeries{cap: capacity}
}

// AddColumn registers a named column. Registration is cold-path and must
// finish before the first Sample; names follow the Registry charset and
// duplicates panic, mirroring Registry.register.
func (t *TimeSeries) AddColumn(name string, read func() uint64) {
	if t == nil {
		return
	}
	if t.data != nil {
		panic("obs: TimeSeries.AddColumn after sampling started: " + name)
	}
	if !validName(name) {
		panic("obs: invalid column name: " + name)
	}
	for _, c := range t.cols {
		if c.name == name {
			panic("obs: duplicate column: " + name)
		}
	}
	t.cols = append(t.cols, tsColumn{name: name, read: read})
}

// seal allocates the sample storage once the column set is final. Called
// lazily by the first Sample, and kept out of line so the hot path itself
// never allocates.
//
//go:noinline
func (t *TimeSeries) seal() {
	t.data = make([]uint64, t.cap*len(t.cols))
	t.cycles = make([]uint64, t.cap)
}

// Sample snapshots every column at the given engine cycle. Zero-alloc
// after the first call; drops (and counts) samples past capacity.
//
//alloyvet:hotpath
func (t *TimeSeries) Sample(cycle uint64) {
	if t == nil {
		return
	}
	if t.data == nil {
		t.seal()
	}
	if t.rows == t.cap {
		t.drops++
		return
	}
	t.cycles[t.rows] = cycle
	base := t.rows * len(t.cols)
	for i := range t.cols {
		t.data[base+i] = t.cols[i].read()
	}
	t.rows++
}

// Len returns the number of retained epoch rows.
func (t *TimeSeries) Len() int {
	if t == nil {
		return 0
	}
	return t.rows
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
	for i, c := range t.cols {
		names[i] = c.name
	}
	return names
}

// Cycle returns the engine cycle of epoch row i.
func (t *TimeSeries) Cycle(row int) uint64 { return t.cycles[row] }

// Value returns column col at epoch row i.
func (t *TimeSeries) Value(row, col int) uint64 { return t.data[row*len(t.cols)+col] }

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
	for r := 0; r < t.rows; r++ {
		sb.Reset()
		fmt.Fprintf(&sb, "%d,%d", r, t.cycles[r])
		base := r * len(t.cols)
		for i := range t.cols {
			fmt.Fprintf(&sb, ",%d", t.data[base+i])
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
		for r := 0; r < t.rows; r++ {
			sb.Reset()
			if r > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "\n[%d,%d", r, t.cycles[r])
			base := r * len(t.cols)
			for i := range t.cols {
				fmt.Fprintf(&sb, ",%d", t.data[base+i])
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
