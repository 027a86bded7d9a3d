package core

import (
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/dram"
	"alloysim/internal/predictor"
)

// Result carries everything the experiment harness needs from one run.
type Result struct {
	Workload  string
	Design    Design
	Predictor PredictorKind

	// ExecCycles is the execution time: the mean finish cycle across
	// cores, the paper's workload execution-time metric (§3.2).
	ExecCycles float64
	// Instructions is the total retired across cores.
	Instructions uint64

	L3 cache.Stats
	// DCHitRate is the DRAM-cache demand hit rate (reads and writes).
	DCHitRate float64
	// DCReadHitRate covers demand reads only, the rate the paper tables use.
	DCReadHitRate float64
	// HitLatency is the mean cycles from L3-miss detection to data arrival
	// for DRAM-cache hits, including predictor serialization — the
	// quantity plotted in Figure 10.
	HitLatency float64
	// MissLatency is the analogous mean for DRAM-cache misses.
	MissLatency float64
	// HitLatencyP95 and MissLatencyP95 are tail percentiles (8-cycle
	// bucket resolution).
	HitLatencyP95  float64
	MissLatencyP95 float64
	// ReadLatency is the mean over all reads serviced below the L3.
	ReadLatency float64

	MemReads, MemWrites uint64
	WastedMemReads      uint64
	// BelowReads and BelowWrites count the requests that left the L3
	// downward (read misses and write traffic). They anchor conservation
	// checks: every below-L3 read is predicted exactly once, so for the
	// cached designs BelowReads equals Accuracy.Total().
	BelowReads, BelowWrites uint64
	Accuracy                predictor.Accuracy

	// MPKI is below-L3 accesses (read misses + writes) per 1000
	// instructions, the Table 3 metric.
	MPKI float64
	// FootprintBytes counts unique lines touched (if tracking was on),
	// times the line size.
	FootprintBytes uint64

	// RowBufferHitRate is the DRAM-cache row-buffer hit rate.
	RowBufferHitRate float64
	StackedStats     dram.Stats
	MemStats         dram.Stats
}

// IPC returns retired instructions per cycle across all cores.
func (r Result) IPC() float64 {
	if r.ExecCycles == 0 {
		return 0
	}
	return float64(r.Instructions) / r.ExecCycles
}

// SpeedupOver returns how much faster this run is than a baseline run of
// the same workload.
func (r Result) SpeedupOver(base Result) float64 {
	if r.ExecCycles == 0 {
		return 0
	}
	return base.ExecCycles / r.ExecCycles
}

// String summarizes the run.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: exec=%.0f cycles, IPC=%.2f, DC hit=%.1f%%, hitLat=%.0f, MPKI=%.1f",
		r.Workload, r.Design, r.ExecCycles, r.IPC(), 100*r.DCHitRate, r.HitLatency, r.MPKI)
}

// collect assembles the Result after the engine drains.
func (s *System) collect() Result {
	var sumFinish float64
	var instr uint64
	for _, c := range s.cores {
		sumFinish += float64(c.FinishTime())
		instr += c.Retired()
	}
	r := Result{
		Workload:       s.cfg.Workload,
		Design:         s.cfg.Design,
		Predictor:      s.predKind,
		ExecCycles:     sumFinish / float64(len(s.cores)),
		Instructions:   instr,
		L3:             s.l3.Stats(),
		HitLatency:     s.hitLat.Value(),
		MissLatency:    s.missLat.Value(),
		HitLatencyP95:  float64(s.hitLatHist.Percentile(95)),
		MissLatencyP95: float64(s.missLatHist.Percentile(95)),
		ReadLatency:    s.readLat.Value(),
		Accuracy:       s.acc,
		MemStats:       s.mem.Stats(),
		StackedStats:   s.stacked.Stats(),
	}
	r.MemReads = r.MemStats.Reads
	r.MemWrites = r.MemStats.Writes
	r.WastedMemReads = s.wastedMemReads.Value()
	r.BelowReads = s.belowReads.Value()
	r.BelowWrites = s.belowWrites.Value()
	if instr > 0 {
		r.MPKI = float64(s.belowReads.Value()+s.belowWrites.Value()) / float64(instr) * 1000
	}
	if s.org != nil {
		ts := s.org.TagStats()
		r.DCHitRate = ts.HitRate()
		reads := ts.Accesses() - (ts.WriteHits + ts.WriteMisses)
		if reads > 0 {
			r.DCReadHitRate = float64(ts.Hits-ts.WriteHits) / float64(reads)
		}
		r.RowBufferHitRate = s.org.RowBufferHitRate()
	}
	if s.footprint != nil {
		r.FootprintBytes = s.footprint.Count() * 64
	}
	return r
}
