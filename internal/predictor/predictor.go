// Package predictor implements the memory access predictors of §5: the
// static SAM (always serialize: wait for the tag check before going to
// memory) and PAM (always probe memory in parallel) reference points, the
// history-based MAP-G (one 3-bit Memory Access Counter per core) and MAP-I
// (a 256-entry Memory Access Counter Table per core indexed by a
// folded-XOR of the miss-causing instruction address), the Perfect oracle,
// and the Loh-Hill MissMap (idealized, perfect contents knowledge at a
// 24-cycle L3-resident probe cost).
//
// A predictor answers one question per L3 read miss: will this line be
// serviced by the DRAM cache (predict "cache" → serial access, saving
// memory bandwidth) or by memory (predict "memory" → parallel access,
// hiding the cache-miss detection latency)? Writes are always serviced
// serially and never predicted (§5.3).
package predictor

import (
	"alloysim/internal/memaddr"
	"alloysim/internal/sim"
)

// Cycle aliases the simulator cycle type.
type Cycle = sim.Cycle

// MAPLatency is the single-cycle latency of the MAP predictors.
const MAPLatency = 1

// MissMapLatency is the L3-resident MissMap probe latency (Table 2: a
// 24-cycle L3 access).
const MissMapLatency = 24

// macBits is the width of each Memory Access Counter (3-bit saturating).
const macBits = 3

const macMax = 1<<macBits - 1     // 7
const macMSB = 1 << (macBits - 1) // 4

// MACTEntries is the per-core Memory Access Counter Table size (8-bit
// folded-XOR index → 256 entries; 96 bytes of 3-bit counters per core).
const MACTEntries = 256

// Predictor decides, per L3 read miss, whether to serialize (predicted
// cache hit) or access memory in parallel (predicted memory access).
type Predictor interface {
	// Predict returns whether the line is predicted to hit in the DRAM
	// cache, and the prediction latency in cycles.
	Predict(core int, pc uint64, line memaddr.Line) (cacheHit bool, latency Cycle)
	// Update trains the predictor with the actual outcome.
	Update(core int, pc uint64, line memaddr.Line, cacheHit bool)
}

// SAM always predicts a cache hit: every access serializes, matching how
// conventional caches operate. Zero latency, zero storage.
type SAM struct{}

// Predict implements Predictor.
func (SAM) Predict(int, uint64, memaddr.Line) (bool, Cycle) { return true, 0 }

// Update implements Predictor.
func (SAM) Update(int, uint64, memaddr.Line, bool) {}

// PAM always predicts a memory access: every L3 miss probes memory in
// parallel with the cache, doubling memory traffic (Table 5).
type PAM struct{}

// Predict implements Predictor.
func (PAM) Predict(int, uint64, memaddr.Line) (bool, Cycle) { return false, 0 }

// Update implements Predictor.
func (PAM) Update(int, uint64, memaddr.Line, bool) {}

// MAPG is the global-history Memory Access Predictor: one 3-bit saturating
// Memory Access Counter per core. Serviced-by-memory increments, serviced-
// by-cache decrements; the MSB selects PAM.
type MAPG struct {
	mac []uint8
}

// NewMAPG creates a MAP-G for the given core count.
func NewMAPG(cores int) *MAPG {
	m := &MAPG{mac: make([]uint8, cores)}
	for i := range m.mac {
		m.mac[i] = macMSB // start neutral-leaning-memory; trains instantly
	}
	return m
}

// Predict implements Predictor: MSB set → predict memory (PAM).
func (m *MAPG) Predict(core int, _ uint64, _ memaddr.Line) (bool, Cycle) {
	return m.mac[core]&macMSB == 0, MAPLatency
}

// Update implements Predictor.
func (m *MAPG) Update(core int, _ uint64, _ memaddr.Line, cacheHit bool) {
	if cacheHit {
		if m.mac[core] > 0 {
			m.mac[core]--
		}
	} else if m.mac[core] < macMax {
		m.mac[core]++
	}
}

// MAPI is the instruction-based Memory Access Predictor: a per-core
// 256-entry Memory Access Counter Table indexed by a folded-XOR hash of
// the miss-causing instruction address. Storage is 256 x 3 bits = 96 bytes
// per core; latency one cycle.
type MAPI struct {
	mact [][]uint8
}

// NewMAPI creates a MAP-I for the given core count.
func NewMAPI(cores int) *MAPI {
	m := &MAPI{mact: make([][]uint8, cores)}
	for c := range m.mact {
		t := make([]uint8, MACTEntries)
		for i := range t {
			t[i] = macMSB
		}
		m.mact[c] = t
	}
	return m
}

func (m *MAPI) index(pc uint64) uint64 { return memaddr.FoldXOR(pc, 8) }

// Predict implements Predictor.
func (m *MAPI) Predict(core int, pc uint64, _ memaddr.Line) (bool, Cycle) {
	return m.mact[core][m.index(pc)]&macMSB == 0, MAPLatency
}

// Update implements Predictor.
func (m *MAPI) Update(core int, pc uint64, _ memaddr.Line, cacheHit bool) {
	e := &m.mact[core][m.index(pc)]
	if cacheHit {
		if *e > 0 {
			*e--
		}
	} else if *e < macMax {
		*e++
	}
}

// ContainsFunc reports whether a line is currently present in the DRAM
// cache; both oracles below are built on it.
type ContainsFunc func(memaddr.Line) bool

// Perfect is the oracle: 100% accuracy at zero latency (§5.4's upper
// bound).
type Perfect struct {
	Contains ContainsFunc
}

// Predict implements Predictor.
func (p Perfect) Predict(_ int, _ uint64, line memaddr.Line) (bool, Cycle) {
	return p.Contains(line), 0
}

// Update implements Predictor.
func (Perfect) Update(int, uint64, memaddr.Line, bool) {}

// MissMap is the Loh-Hill structure: exact per-line presence information
// (modeled idealized and unlimited, as in the paper's methodology), paying
// an L3 access on every probe. Its perfect knowledge costs 24 cycles of
// Predictor Serialization Latency on hits and misses alike.
type MissMap struct {
	Contains ContainsFunc
}

// Predict implements Predictor.
func (m MissMap) Predict(_ int, _ uint64, line memaddr.Line) (bool, Cycle) {
	return m.Contains(line), MissMapLatency
}

// Update implements Predictor.
func (MissMap) Update(int, uint64, memaddr.Line, bool) {}

// Accuracy tallies the four outcome-prediction scenarios of Table 5. Rows
// are the actual service point, columns the prediction.
type Accuracy struct {
	MemPredMem     uint64 // serviced by memory, predicted memory (correct)
	MemPredCache   uint64 // serviced by memory, predicted cache (slow: serialized miss)
	CachePredMem   uint64 // serviced by cache, predicted memory (wasteful: extra bandwidth)
	CachePredCache uint64 // serviced by cache, predicted cache (correct)
}

// Record adds one outcome.
func (a *Accuracy) Record(predictedCacheHit, actualCacheHit bool) {
	switch {
	case !actualCacheHit && !predictedCacheHit:
		a.MemPredMem++
	case !actualCacheHit && predictedCacheHit:
		a.MemPredCache++
	case actualCacheHit && !predictedCacheHit:
		a.CachePredMem++
	default:
		a.CachePredCache++
	}
}

// Total returns the number of recorded predictions.
func (a Accuracy) Total() uint64 {
	return a.MemPredMem + a.MemPredCache + a.CachePredMem + a.CachePredCache
}

// Overall returns the fraction of correct predictions.
func (a Accuracy) Overall() float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return float64(a.MemPredMem+a.CachePredCache) / float64(t)
}

// Fraction returns v as a fraction of all recorded predictions.
func (a Accuracy) Fraction(v uint64) float64 {
	t := a.Total()
	if t == 0 {
		return 0
	}
	return float64(v) / float64(t)
}
