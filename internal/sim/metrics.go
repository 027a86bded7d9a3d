package sim

import "alloysim/internal/obs"

// RegisterMetrics exports the engine's progress counters under the given
// prefix (e.g. "sim_engine"). The event loop itself is untouched: the
// exporter reads these fields only at dump or epoch time. The current
// cycle is not among them: the time series keys every row by it, and
// the system adds it to the registry alone.
func (e *Engine) RegisterMetrics(x obs.Exporter, prefix string) {
	x.Counter(prefix+"_events_total", "events executed", func() uint64 { return e.nSteps })
	x.Level(prefix+"_pending_events", "events waiting to execute", func() uint64 { return uint64(e.pending) })
}
