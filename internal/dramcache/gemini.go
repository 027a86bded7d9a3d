package dramcache

import (
	"fmt"

	"alloysim/internal/cache"
	"alloysim/internal/dram"
	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
)

// geminiSteerBits sizes the steering predictor: one 2-bit counter per
// hashed line, 4096 entries.
const geminiSteerBits = 12

// geminiSteerMax saturates the steering counters (values 0..3; >= 2 means
// the line prefers the set-associative region).
const geminiSteerMax = 3

// Gemini is a hybrid organization: three quarters of the stacked rows form
// a direct-mapped latency region using Alloy's TAD layout (tag fused with
// data, one burst, no serialization), and the remaining quarter forms a
// set-associative region using the Loh-Hill layout (29 ways per row behind
// three tag lines) for conflict-prone lines. A per-line steering predictor
// — 2-bit saturating counters trained by hits and by direct-mapped
// conflict evictions — decides which region to probe first and where
// misses install. Lines that thrash the direct-mapped region migrate to
// associativity; everything else keeps Alloy's latency.
type Gemini struct {
	base
	dm          *cache.Cache // direct-mapped region (TAD layout)
	sa          *cache.Cache // set-associative region (Loh-Hill layout)
	dmRows      uint64
	steer       []uint8
	saMisrouted stats.Counter // accesses that found the line in the unpredicted region
}

// newGemini builds a Gemini cache from p. Its regions split the rows, so
// it derives its own two stores: three quarters of the rows, at least
// one, hold TADs direct-mapped under LRU, and the rest hold 29-way sets
// under SRRIP or p.Policy, seeded by p.Seed. Both layouts must fit a row,
// and the capacity must span at least two rows, one per region.
func newGemini(p Params) (Organization, error) {
	policy := p.Policy
	if policy == "" {
		policy = "srrip"
	}
	rowBytes := p.Stacked.Config().RowBytes
	if err := alloyLayout.fit("gemini", rowBytes); err != nil {
		return nil, err
	}
	if err := lhLayout.fit("gemini", rowBytes); err != nil {
		return nil, err
	}
	rows := p.CapacityBytes / uint64(rowBytes)
	if rows < 2 {
		return nil, fmt.Errorf("dramcache: Gemini needs at least two rows (one per region), capacity %d holds %d", p.CapacityBytes, rows)
	}
	dmRows := rows * 3 / 4
	dm, err := cache.New(cache.Config{Sets: int(dmRows) * AlloyTADsPerRow, Assoc: 1, Policy: "lru"})
	if err != nil {
		return nil, err
	}
	sa, err := cache.New(cache.Config{Sets: int(rows - dmRows), Assoc: LHDataLinesPerRow, Policy: policy, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	return &Gemini{
		base:   base{stacked: p.Stacked},
		dm:     dm,
		sa:     sa,
		dmRows: dmRows,
		steer:  make([]uint8, 1<<geminiSteerBits),
	}, nil
}

//alloyvet:hotpath
func (g *Gemini) dmRowOf(set int) uint64 { return uint64(set / AlloyTADsPerRow) }

// saRowOf maps a set-associative set to its row, after the direct-mapped
// region's rows.
//
//alloyvet:hotpath
func (g *Gemini) saRowOf(set int) uint64 { return g.dmRows + uint64(set) }

//alloyvet:hotpath
func (g *Gemini) steerIndex(line memaddr.Line) uint64 {
	return memaddr.FoldXOR(uint64(line), geminiSteerBits)
}

//alloyvet:hotpath
func (g *Gemini) trainToward(line memaddr.Line, sa bool) {
	idx := g.steerIndex(line)
	if sa {
		if g.steer[idx] < geminiSteerMax {
			g.steer[idx]++
		}
	} else if g.steer[idx] > 0 {
		g.steer[idx]--
	}
}

// probeDM models the direct-mapped region's TAD stream starting at t:
// tag and data arrive together, outcome known one tag-check later.
//
//alloyvet:hotpath
func (g *Gemini) probeDM(t Cycle, line memaddr.Line, res *dram.Result) (tagKnown Cycle) {
	g.stacked.AccessRowInto(t, g.dmRowOf(g.dm.SetOf(line)), AlloyBurst, false, res)
	return res.Done + TagCheckCycles
}

// probeSA models the set-associative region's tag-line read starting at t
// (three lines, as in the Loh-Hill layout).
//
//alloyvet:hotpath
func (g *Gemini) probeSA(t Cycle, line memaddr.Line, res *dram.Result) (tagKnown Cycle) {
	burst := LHTagLines * g.stacked.BurstLine()
	g.stacked.AccessRowInto(t, g.saRowOf(g.sa.SetOf(line)), burst, false, res)
	return res.Done + TagCheckCycles
}

// AccessInto implements Organization. The steering predictor picks which
// region to probe first; a wrong guess serializes the other region's probe
// behind the first tag check. Misses install in the region the predictor
// currently favors for the line.
//
//alloyvet:hotpath
func (g *Gemini) AccessInto(now Cycle, line memaddr.Line, write bool, r *AccessResult) {
	st := g.contents(line, write)
	*r = AccessResult{}
	r.Probed = true

	// First probe: the predicted region.
	var tagKnown Cycle
	if st.saFirst {
		tagKnown = g.probeSA(now, line, &r.First)
	} else {
		tagKnown = g.probeDM(now, line, &r.First)
	}
	inFirst := (st.saFirst && st.inSA) || (!st.saFirst && st.inDM)

	if !inFirst && (st.inDM || st.inSA) {
		// Predicted the wrong region: the other region's probe starts only
		// once the first tag check comes back empty.
		g.saMisrouted.Inc()
		var second dram.Result
		if st.saFirst {
			tagKnown = g.probeDM(tagKnown, line, &second)
			// The DM probe's TAD stream is what carries the data (and the
			// row-buffer outcome) for this hit; the SA tag lines held
			// nothing. Thread it into First so hitIn's read path consumes
			// the misrouted burst, not the first probe's.
			r.First = second
		} else {
			tagKnown = g.probeSA(tagKnown, line, &second)
		}
	}
	r.TagKnown = tagKnown

	if st.inDM || st.inSA {
		g.hitIn(tagKnown, line, write, st.inSA, r)
		g.observe(r, now)
		return
	}

	// Miss in the predicted region; the other region's tags are checked in
	// the shadow of the miss handling (its probe bandwidth is charged).
	var second dram.Result
	if st.saFirst {
		tagKnown = g.probeDM(tagKnown, line, &second)
	} else {
		tagKnown = g.probeSA(tagKnown, line, &second)
	}
	r.TagKnown = tagKnown
	if !write {
		r.Victim, r.Allocated = st.ev, true
	}
	g.observe(r, now)
}

// Warm implements Organization.
//
//alloyvet:hotpath
func (g *Gemini) Warm(line memaddr.Line, write bool) { g.contents(line, write) }

// geminiStep is what Gemini's contents step decided, as its timing flow
// needs it.
type geminiStep struct {
	saFirst    bool           // the steering predictor probes the SA region first
	inDM, inSA bool           // where the line was resident: a hit, in that region
	ev         cache.Eviction // what a read miss's install evicted
}

// contents is Gemini's contents step: the residency checks, the steering
// choice, the hit's update in its region or the miss's probe or install
// in the predicted region, and every steering update. A hit trains the
// line toward its region; a direct-mapped conflict eviction trains the
// victim toward associativity.
//
//alloyvet:hotpath
func (g *Gemini) contents(line memaddr.Line, write bool) (st geminiStep) {
	st.inDM = g.dm.Contains(line)
	st.inSA = g.sa.Contains(line)
	if invariants.Enabled && st.inDM && st.inSA {
		invariants.Failf("dramcache: Gemini line %d resident in both regions", line)
	}
	st.saFirst = g.steer[g.steerIndex(line)] >= 2

	switch {
	case st.inSA:
		g.sa.Probe(line, write)
		g.trainToward(line, true)
	case st.inDM:
		g.dm.Probe(line, write)
		g.trainToward(line, false)
	case write:
		// Forwarded to memory; count the write miss against the region the
		// line would install into.
		if st.saFirst {
			g.sa.Probe(line, true)
		} else {
			g.dm.Probe(line, true)
		}
	case st.saFirst:
		_, st.ev = g.sa.Access(line, false)
		if invariants.Enabled && !g.sa.Contains(line) {
			invariants.Failf("dramcache: Gemini SA install of line %d did not take", line)
		}
	default:
		_, st.ev = g.dm.Access(line, false)
		if invariants.Enabled && !g.dm.Contains(line) {
			invariants.Failf("dramcache: Gemini DM install of line %d did not take", line)
		}
		if st.ev.Valid {
			// A direct-mapped conflict evicted the victim: next time, steer
			// the victim toward associativity.
			g.trainToward(st.ev.Line, true)
		}
	}
	return st
}

// hitIn models the data movement of a hit in the owning region, starting
// from the cycle its tag check resolved.
//
//alloyvet:hotpath
func (g *Gemini) hitIn(tagKnown Cycle, line memaddr.Line, write, hitSA bool, r *AccessResult) {
	burst := g.stacked.BurstLine()
	var data dram.Result
	if hitSA {
		// Compound scheduling keeps the row open for the data column
		// access, then a one-beat replacement-state update.
		g.stacked.AccessRowInto(tagKnown, g.saRowOf(g.sa.SetOf(line)), burst, write, &data)
		var upd dram.Result
		g.stacked.AccessRowInto(data.Done, g.saRowOf(g.sa.SetOf(line)), 1, true, &upd)
		r.Hit, r.DataReady = true, data.Done
		return
	}
	if write {
		// Alloy-style: write the updated TAD back (row open).
		g.stacked.AccessRowInto(tagKnown, g.dmRowOf(g.dm.SetOf(line)), burst, true, &data)
		r.Hit, r.DataReady = true, data.Done
		return
	}
	// Read hit: the TAD stream already carried the data.
	r.Hit, r.DataReady = true, r.First.Done
}

// Fill implements Organization: the install traffic matches the region the
// missing AccessInto reserved the frame in — one TAD burst for the
// direct-mapped region, tag read plus data-and-tag write for the
// set-associative region.
func (g *Gemini) Fill(now Cycle, line memaddr.Line) Cycle {
	if g.sa.Contains(line) {
		burst := g.stacked.BurstLine()
		row := g.saRowOf(g.sa.SetOf(line))
		tagRead := g.stacked.AccessRow(now, row, LHTagLines*burst, false)
		return g.stacked.AccessRow(tagRead.Done+TagCheckCycles, row, burst+1, true).Done
	}
	if invariants.Enabled && !g.dm.Contains(line) {
		invariants.Failf("dramcache: Gemini fill of line %d not reserved in either region", line)
	}
	return g.stacked.AccessRow(now, g.dmRowOf(g.dm.SetOf(line)), AlloyBurst, true).Done
}

// Contains implements Organization across both regions.
func (g *Gemini) Contains(line memaddr.Line) bool {
	return g.dm.Contains(line) || g.sa.Contains(line)
}

// TagStats implements Organization: the two regions' counters summed.
func (g *Gemini) TagStats() cache.Stats {
	d, s := g.dm.Stats(), g.sa.Stats()
	return cache.Stats{
		Hits:        d.Hits + s.Hits,
		Misses:      d.Misses + s.Misses,
		Writebacks:  d.Writebacks + s.Writebacks,
		Evictions:   d.Evictions + s.Evictions,
		WriteHits:   d.WriteHits + s.WriteHits,
		WriteMisses: d.WriteMisses + s.WriteMisses,
	}
}

// ResetStats implements Organization.
func (g *Gemini) ResetStats() {
	g.dm.ResetStats()
	g.sa.ResetStats()
	g.hitLat = stats.Mean{}
	g.rowHits = stats.Counter{}
	g.accs = stats.Counter{}
	g.saMisrouted = stats.Counter{}
}

// RegisterMetrics implements Organization: per-region tag counters plus
// the organization-level statistics.
func (g *Gemini) RegisterMetrics(x obs.Exporter, prefix string) {
	g.dm.RegisterMetrics(x, prefix+"_dm_tags")
	g.sa.RegisterMetrics(x, prefix+"_sa_tags")
	x.Counter(prefix+"_accesses_total", "demand accesses serviced", func() uint64 { return g.accs.Value() })
	x.Counter(prefix+"_row_buffer_hits_total", "demand accesses whose first DRAM access hit an open row", func() uint64 { return g.rowHits.Value() })
	x.Counter(prefix+"_steer_misroutes_total", "hits found in the region the steering predictor did not probe first", func() uint64 { return g.saMisrouted.Value() })
	x.Gauge(prefix+"_row_buffer_hit_rate", "row-buffer hit fraction of demand accesses", func() float64 { return g.RowBufferHitRate() })
	x.Gauge(prefix+"_hit_latency_mean_cycles", "mean cache-internal hit latency", func() float64 { return g.hitLat.Value() })
}
