package obs

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
)

// FlightRecorder is the always-on black box: a fixed ring of the most
// recent epoch snapshots plus a sparse always-on tracer of recent request
// lifecycles. Where TimeSeries keeps the whole phase profile (and is
// opt-in), the recorder keeps only the last few dozen epochs at
// negligible cost, so when a run errors, a validate gate trips, or an
// operator sends SIGQUIT, the moments leading up to the event are
// recoverable after the fact.
//
// Same ownership contract as Tracer and TimeSeries: nil-safe methods,
// single-owner sampling on the simulation goroutine, deterministic
// hand-formatted export. Unlike TimeSeries the ring keeps the NEWEST
// rows — recency is the whole point of a flight recorder.
//
// Concurrent readers (the /debug/flightrecorder handler) must consume
// PublishSnapshot renderings, mirroring the Registry scrape contract;
// WriteJSON on a live recorder is only safe from the sampling goroutine
// or after the run.
type FlightRecorder struct {
	columnStore
	head int // next ring row to write

	trc *Tracer // sparse always-on lifecycle tracer; may be nil

	// rendered WriteJSON bytes for concurrent scrapers
	snap atomic.Pointer[[]byte]
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

// eachRow visits retained rows oldest-first with the row's ring index.
func (f *FlightRecorder) eachRow(fn func(ring int) error) error {
	start := f.head - f.n
	if start < 0 {
		start += f.cap
	}
	for i := 0; i < f.n; i++ {
		if err := fn((start + i) % f.cap); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the ring (oldest-first) and the recent sampled spans
// as one object with a fixed field order, hand-formatted so identical
// states produce byte-identical dumps:
//
//	{"columns":[...],"drops":N,"rows":[["cycle",v...],...],
//	 "spans_sampled":S,"spans":[{...},...]}
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(`{"columns":["cycle"`)
	if f != nil {
		for _, c := range f.cols {
			fmt.Fprintf(&sb, ",%q", c.name)
		}
	}
	fmt.Fprintf(&sb, `],"drops":%d,"rows":[`, f.Drops())
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	if f != nil {
		first := true
		err := f.eachRow(func(ring int) error {
			sb.Reset()
			if !first {
				sb.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&sb, "\n[%d", f.cycles[ring])
			for _, v := range f.row(ring) {
				fmt.Fprintf(&sb, ",%d", v)
			}
			sb.WriteByte(']')
			_, err := io.WriteString(w, sb.String())
			return err
		})
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "\n],\"spans_sampled\":%d,\"spans\":[", f.Tracer().Sampled()); err != nil {
		return err
	}
	if t := f.Tracer(); t != nil {
		first := true
		err := t.eachSpan(func(s *Span) error {
			sep := ",\n"
			if first {
				sep = "\n"
				first = false
			}
			hit := 0
			if s.Hit {
				hit = 1
			}
			_, err := fmt.Fprintf(w,
				"%s{\"req\":%d,\"kind\":%q,\"start\":%d,\"dur\":%d,\"core\":%d,\"line\":%d,\"hit\":%d}",
				sep, s.ReqID, s.Kind.String(), s.Start, s.Dur, s.Core, s.Line, hit)
			return err
		})
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// PublishSnapshot renders the current state and stores it for concurrent
// scrapers; call from the sampling goroutine at synchronization points
// (the same place Registry.PublishSnapshot is called). Until the first
// publish, Snapshot reports nothing and the debug handler falls back to
// a live dump — only correct when no simulation is mid-flight.
func (f *FlightRecorder) PublishSnapshot() {
	if f == nil {
		return
	}
	var sb strings.Builder
	if err := f.WriteJSON(&sb); err != nil {
		return
	}
	b := []byte(sb.String())
	f.snap.Store(&b)
}

// Snapshot returns the most recently published rendering.
func (f *FlightRecorder) Snapshot() ([]byte, bool) {
	if f == nil {
		return nil, false
	}
	if p := f.snap.Load(); p != nil {
		return *p, true
	}
	return nil, false
}
