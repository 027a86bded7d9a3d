package dram

import (
	"fmt"

	"alloysim/internal/obs"
)

// RegisterMetrics exports the device's activity counters under the
// given prefix (e.g. "dram_offchip"). Registration only captures read-back
// closures over the existing stat fields — the hot path is untouched.
func (d *DRAM) RegisterMetrics(x obs.Exporter, prefix string) {
	x.Counter(prefix+"_reads_total", "read requests serviced", func() uint64 { return d.stats.Reads })
	x.Counter(prefix+"_writes_total", "write requests drained", func() uint64 { return d.stats.Writes })
	x.Counter(prefix+"_row_hits_total", "column accesses to an already-open row", func() uint64 { return d.stats.RowHits })
	x.Counter(prefix+"_row_misses_total", "activations on a closed bank", func() uint64 { return d.stats.RowMisses })
	x.Counter(prefix+"_row_conflicts_total", "accesses that forced precharge plus activation", func() uint64 { return d.stats.RowConflict })
	x.Counter(prefix+"_refresh_stalls_total", "accesses delayed by a refresh window", func() uint64 { return d.stats.RefreshStalls })
	x.Counter(prefix+"_bus_busy_cycles_total", "cumulative data-bus busy cycles across channels", func() uint64 { return d.stats.BusBusy.Count() })
	x.Counter(prefix+"_bank_wait_cycles_total", "cumulative cycles requests waited for their bank", func() uint64 { return d.stats.TotalWait.Count() })
	x.Gauge(prefix+"_row_hit_rate", "fraction of accesses hitting an open row", func() float64 { return d.stats.RowHitRate() })
}

// RegisterBankTimeSeries adds one read-access counter per physical bank
// (prefix_bank00_accesses_total, ...), the raw material of the per-bank
// occupancy phase figure. Kept apart from RegisterMetrics because a
// device can have hundreds of banks; callers opt in, with a sampler, for
// the device they are studying (the stacked DRAM cache).
func (d *DRAM) RegisterBankTimeSeries(x obs.Exporter, prefix string) {
	for i := range d.banks {
		b := &d.banks[i]
		x.Counter(fmt.Sprintf("%s_bank%02d_accesses_total", prefix, i), "", func() uint64 { return b.accesses })
	}
}
