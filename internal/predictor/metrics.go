package predictor

import "alloysim/internal/obs"

// RegisterMetrics exports the four Table 5 outcome quadrants and the
// overall accuracy under the given prefix (e.g. "predictor"). The time
// series keeps only the quadrants; per-epoch accuracy is derived from
// their deltas (correct = mem_pred_mem + cache_pred_cache).
func (a *Accuracy) RegisterMetrics(x obs.Exporter, prefix string) {
	x.Counter(prefix+"_mem_pred_mem_total", "serviced by memory, predicted memory (correct)", func() uint64 { return a.MemPredMem })
	x.Counter(prefix+"_mem_pred_cache_total", "serviced by memory, predicted cache (serialized miss)", func() uint64 { return a.MemPredCache })
	x.Counter(prefix+"_cache_pred_mem_total", "serviced by cache, predicted memory (wasted memory read)", func() uint64 { return a.CachePredMem })
	x.Counter(prefix+"_cache_pred_cache_total", "serviced by cache, predicted cache (correct)", func() uint64 { return a.CachePredCache })
	x.Gauge(prefix+"_accuracy", "fraction of correct hit/miss predictions", func() float64 { return a.Overall() })
}
