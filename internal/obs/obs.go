// Package obs is the simulator's observability layer: a typed metrics
// registry, a sampling per-request latency tracer, a serialized log
// writer, and run manifests — all engineered to cost nothing when turned
// off and almost nothing when on.
//
// The design splits responsibilities so no hot path ever touches a map or
// an interface:
//
//   - Hot paths increment plain fields their component owns
//     (stats.Counter and the per-component stats structs). The
//     //alloyvet:hotpath analyzer and the escape gate keep those paths
//     allocation-free.
//   - Each component lists its counters once, in a
//     RegisterMetrics(Exporter, prefix) method that hands the Exporter a
//     read-back closure per counter at setup. The Registry and
//     TimeSeries both implement Exporter, so one list feeds the -metrics
//     dump and the phase time series; lookups, sorting and formatting
//     happen only at dump or sample time.
//   - The Tracer records fixed-size span records into a preallocated ring
//     buffer; sampling is a deterministic 1-in-N counter, never a clock
//     or RNG, so traced runs remain byte-reproducible.
//
// Everything here is single-writer by design, like the simulator it
// instruments: one System owns one Registry and one Tracer. Every export
// is a post-run artifact: a registry or time series is read only by a
// reader that is synchronized with its writers — the CLIs dumping after
// the run, or a read-back closure that locks its owner's mutex (the
// experiments runner's counters). Nothing reads live fields
// while a simulation runs, so hot-path writes stay plain single-writer
// field increments — zero allocations and zero added cycles. SyncWriter
// serializes log lines from the experiment runner's worker goroutines.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"alloysim/internal/stats"
)

// Exporter is the one hook through which a component publishes its
// counters. Each component has a single RegisterMetrics(Exporter, prefix)
// that lists them once; the Registry renders that list for the -metrics
// dump, and the TimeSeries samples it at epoch boundaries. Every method
// takes a read-back closure over a field the component already owns, so
// exporting changes nothing on the component's hot path.
type Exporter interface {
	// Counter exports a monotone event count.
	Counter(name, help string, read func() uint64)
	// Level exports an integral instantaneous level (occupancy, queue
	// depth): a gauge in the registry, a column in the time series.
	Level(name, help string, read func() uint64)
	// Gauge exports a derived ratio or mean. The time series skips it:
	// readers derive rates from the counters' epoch deltas.
	Gauge(name, help string, read func() float64)
}

// metricKind discriminates registry entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered name. Exactly one of the payload fields is
// set, according to kind.
type metric struct {
	name string
	help string
	kind metricKind

	counter func() uint64
	gauge   func() float64
	hist    *stats.Histogram
}

// value returns the metric's current scalar reading (histograms report
// their sample count).
func (m *metric) value() float64 {
	switch m.kind {
	case kindCounter:
		return float64(m.counter())
	case kindGauge:
		return m.gauge()
	case kindHistogram:
		return float64(m.hist.N())
	}
	return 0
}

// Registry is the central metric index. Registration happens at setup
// and may allocate freely; dumping sorts by name so output is
// deterministic. The index itself is guarded by a mutex, so a
// registration on one goroutine cannot race a Value read or a dump on
// another; the lock is never touched on metric hot paths, which
// increment their owner's fields directly. The zero Registry is not
// usable — call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	metrics []metric       //alloyvet:guard mu
	byName  map[string]int //alloyvet:guard mu (index into metrics, duplicate detection)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// register validates and stores one entry. Duplicate or malformed names
// panic: both are registration-site bugs, not runtime conditions.
func (r *Registry) register(m metric) {
	if !validName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", m.name))
	}
	r.byName[m.name] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// validName accepts Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers a counter read through read at dump time.
// Implements Exporter.
func (r *Registry) Counter(name, help string, read func() uint64) {
	r.register(metric{name: name, help: help, kind: kindCounter, counter: read})
}

// Level registers an integral level, rendered as a gauge. Implements
// Exporter.
func (r *Registry) Level(name, help string, read func() uint64) {
	r.Gauge(name, help, func() float64 { return float64(read()) })
}

// Gauge registers a gauge read through read at dump time. Implements
// Exporter.
func (r *Registry) Gauge(name, help string, read func() float64) {
	r.register(metric{name: name, help: help, kind: kindGauge, gauge: read})
}

// RegisterHistogram exposes a stats.Histogram. The registry does not own
// or copy it: observations keep going through the histogram's own
// Observe on the hot path.
func (r *Registry) RegisterHistogram(name, help string, h *stats.Histogram) {
	r.register(metric{name: name, help: help, kind: kindHistogram, hist: h})
}

// Value reads the current value of the named metric (histograms report
// their count). The bool reports whether the name is registered.
func (r *Registry) Value(name string) (float64, bool) {
	r.mu.RLock()
	i, ok := r.byName[name]
	var m metric
	if ok {
		m = r.metrics[i]
	}
	r.mu.RUnlock()
	if !ok {
		return 0, false
	}
	// The value read happens outside the index lock: read-back closures
	// may take their owner's lock (the runner's), and holding r.mu across
	// a foreign lock invites ordering deadlocks.
	return m.value(), true
}

// sorted returns the metrics ordered by name; dump output must not
// depend on registration order. The copy is taken under the index lock,
// but values are read afterwards, outside it.
func (r *Registry) sorted() []metric {
	r.mu.RLock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, sorted by name. Histograms delegate to
// stats.Histogram.WriteText so the obs layer and the pre-existing
// latency histograms share one encoder.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, m := range r.sorted() {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		switch m.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.counter()); err != nil {
				return err
			}
		case kindGauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m.name, m.name, formatFloat(m.value())); err != nil {
				return err
			}
		case kindHistogram:
			if err := m.hist.WriteText(w, m.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a float compactly and deterministically: integers
// lose the trailing ".000000", everything else keeps %g's shortest form.
func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
