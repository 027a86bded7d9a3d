package cache

import "alloysim/internal/obs"

// RegisterMetrics exports the cache's event counters under the given
// prefix (e.g. "l3"). Only read-back closures are registered; the lookup
// and fill paths keep incrementing their plain stat fields. Occupancy is
// the one non-monotone level, and the phase figures read it directly.
func (c *Cache) RegisterMetrics(x obs.Exporter, prefix string) {
	x.Counter(prefix+"_hits_total", "demand accesses that hit", func() uint64 { return c.stats.Hits })
	x.Counter(prefix+"_misses_total", "demand accesses that missed", func() uint64 { return c.stats.Misses })
	x.Counter(prefix+"_write_hits_total", "write accesses that hit", func() uint64 { return c.stats.WriteHits })
	x.Counter(prefix+"_write_misses_total", "write accesses that missed", func() uint64 { return c.stats.WriteMisses })
	x.Counter(prefix+"_evictions_total", "valid lines displaced by fills", func() uint64 { return c.stats.Evictions })
	x.Counter(prefix+"_writebacks_total", "dirty lines displaced by fills", func() uint64 { return c.stats.Writebacks })
	x.Gauge(prefix+"_hit_rate", "hits over demand accesses", func() float64 { return c.stats.HitRate() })
	x.Level(prefix+"_occupancy_lines", "valid lines currently resident", func() uint64 { return uint64(c.Occupancy()) })
}
