// Package obs mirrors the real internal/obs just enough for the hotpath
// golden tests: the analyzer recognizes Registry lookups by the package
// name and the Registry type, not by import path.
package obs

type Counter struct{ v uint64 }

func (c *Counter) Inc() { c.v++ }

type Registry struct{ byName map[string]int }

func (r *Registry) Counter(name, help string) *Counter { return &Counter{} }

// TimeSeries mirrors the real phase-telemetry sink. Its Sample method is
// implicitly hot — the analyzer checks it with no annotation — and this
// clean, preallocated-index-write body must stay silent, matching the
// real implementation.
type TimeSeries struct {
	rows   int
	cycles []uint64
	data   []uint64
}

func (t *TimeSeries) Sample(cycle uint64) {
	t.cycles[t.rows] = cycle
	t.data[t.rows] = cycle
	t.rows++
}
