package obs

import (
	"io"
	"strconv"
)

// FlightRecorder is a black box for one run: a fixed ring of the most
// recent epoch snapshots plus a sparse tracer of recent request
// lifecycles. Where TimeSeries keeps the whole phase profile, the
// recorder keeps only the last few dozen epochs at negligible cost, so
// the moments leading up to the end of a run (alloysim -flight) or to a
// tripped validate gate are recoverable after the fact.
//
// Same ownership contract as Tracer and TimeSeries: nil-safe methods,
// single-owner sampling on the simulation goroutine, deterministic
// hand-formatted export read after the run. Unlike TimeSeries the ring
// keeps the NEWEST rows — recency is the whole point of a flight
// recorder.
type FlightRecorder struct {
	columnStore
	head int // next ring row to write

	trc *Tracer // sparse lifecycle tracer; may be nil
}

// NewFlightRecorder creates a recorder retaining the last epochCap epoch
// rows (default 64) and a private tracer sampling one request in
// spanSample with ring capacity spanCap (spanSample=0 disables the
// tracer half; Tracer defaults apply to spanCap).
func NewFlightRecorder(epochCap int, spanSample uint64, spanCap int) *FlightRecorder {
	if epochCap <= 0 {
		epochCap = 64
	}
	return &FlightRecorder{
		columnStore: columnStore{cap: epochCap},
		trc:         NewTracer(spanSample, spanCap),
	}
}

// Tracer returns the recorder's lifecycle tracer (nil when disabled).
func (f *FlightRecorder) Tracer() *Tracer {
	if f == nil {
		return nil
	}
	return f.trc
}

// Counter adds a column, like TimeSeries.Counter. Implements Exporter.
func (f *FlightRecorder) Counter(name, help string, read func() uint64) {
	if f != nil {
		f.add(name, read)
	}
}

// Level adds a column, exactly like Counter. Implements Exporter.
func (f *FlightRecorder) Level(name, help string, read func() uint64) { f.Counter(name, help, read) }

// Gauge is a no-op, like TimeSeries.Gauge. Implements Exporter.
func (f *FlightRecorder) Gauge(name, help string, read func() float64) {}

// Sample snapshots every column at the given engine cycle, overwriting
// the oldest row once the ring is full. Zero-alloc after the first call.
//
//alloyvet:hotpath
func (f *FlightRecorder) Sample(cycle uint64) {
	if f == nil {
		return
	}
	if f.data == nil {
		f.grow(f.cap)
	}
	if f.n == f.cap {
		f.drops++
	} else {
		f.n++
	}
	f.write(f.head, cycle)
	f.head++
	if f.head == f.cap {
		f.head = 0
	}
}

// Len returns the number of retained epoch rows.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	return f.n
}

// Drops returns how many epoch rows were overwritten.
func (f *FlightRecorder) Drops() uint64 {
	if f == nil {
		return 0
	}
	return f.drops
}

// Columns returns the registered column names in registration order.
func (f *FlightRecorder) Columns() []string {
	if f == nil {
		return nil
	}
	return f.names()
}

// WriteJSON renders the ring (oldest-first) and the recent sampled spans
// as one object with a fixed field order, hand-formatted so identical
// states produce byte-identical dumps:
//
//	{"columns":[...],"drops":N,"rows":[["cycle",v...],...],
//	 "spans_sampled":S,"spans":[{...},...]}
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	_, err := w.Write(f.appendJSON(make([]byte, 0, 4096)))
	return err
}

// appendJSON appends WriteJSON's rendering to b, formatting into the one
// buffer with no per-value allocation.
func (f *FlightRecorder) appendJSON(b []byte) []byte {
	b = append(b, `{"columns":["cycle"`...)
	if f != nil {
		for _, c := range f.cols {
			b = append(b, ',')
			b = strconv.AppendQuote(b, c.name)
		}
	}
	b = append(b, `],"drops":`...)
	b = strconv.AppendUint(b, f.Drops(), 10)
	b = append(b, `,"rows":[`...)
	if f != nil {
		start := f.head - f.n
		if start < 0 {
			start += f.cap
		}
		for i := 0; i < f.n; i++ {
			ring := (start + i) % f.cap
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n["...)
			b = strconv.AppendUint(b, f.cycles[ring], 10)
			for _, v := range f.row(ring) {
				b = append(b, ',')
				b = strconv.AppendUint(b, v, 10)
			}
			b = append(b, ']')
		}
	}
	b = append(b, "\n],\"spans_sampled\":"...)
	b = strconv.AppendUint(b, f.Tracer().Sampled(), 10)
	b = append(b, `,"spans":[`...)
	if t := f.Tracer(); t != nil {
		sep := "\n"
		_ = t.eachSpan(func(s *Span) error {
			b = append(b, sep...)
			sep = ",\n"
			b = append(b, `{"req":`...)
			b = strconv.AppendUint(b, s.ReqID, 10)
			b = append(b, `,"kind":`...)
			b = strconv.AppendQuote(b, s.Kind.String())
			b = append(b, `,"start":`...)
			b = strconv.AppendUint(b, s.Start, 10)
			b = append(b, `,"dur":`...)
			b = strconv.AppendUint(b, s.Dur, 10)
			b = append(b, `,"core":`...)
			b = strconv.AppendInt(b, int64(s.Core), 10)
			b = append(b, `,"line":`...)
			b = strconv.AppendUint(b, s.Line, 10)
			b = append(b, `,"hit":`...)
			if s.Hit {
				b = append(b, '1')
			} else {
				b = append(b, '0')
			}
			b = append(b, '}')
			return nil
		})
	}
	return append(b, "\n]}\n"...)
}
