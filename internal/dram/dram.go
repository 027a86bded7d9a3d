// Package dram models DRAM device timing: banks with open-row state,
// activate/CAS/precharge timing constraints, and per-channel data-bus
// occupancy. The same model is instantiated twice in the paper's system —
// once for commodity off-chip DRAM and once for the die-stacked DRAM that
// backs the cache — with the timing parameters of Table 2, expressed in
// processor cycles as in Figure 3.
//
// The model is a deterministic resource-reservation simulator: a request
// arriving at cycle t reserves its bank and channel bus, and its completion
// time follows from the timing constraints and any queueing behind earlier
// requests. Requests are serviced in arrival order per bank (FCFS), with
// full bank- and channel-level parallelism. A row stays open until a
// conflicting activation forces a precharge or, under the adaptive page
// policy (Config.CloseTimeout), until its bank has idled long enough; a
// refresh (Config.TREFI) closes it too.
package dram

import (
	"fmt"
	"math/bits"

	"alloysim/internal/invariants"
	"alloysim/internal/memaddr"
	"alloysim/internal/sim"
)

// Config holds device geometry and timing, in processor cycles.
type Config struct {
	Name            string
	Channels        int
	BanksPerChannel int
	RowBytes        int // row buffer size (2048 in the paper)

	TACT Cycle // activate (tRCD): row open → column command
	TCAS Cycle // CAS: column command → first data
	TRP  Cycle // precharge
	TRAS Cycle // min time a row stays open after activation

	// BurstLine is the data-bus occupancy, in cycles, of one 64 B line.
	BurstLine Cycle

	// CloseTimeout models the controller's adaptive page policy: a bank
	// idle for this many cycles is precharged in the background, so the
	// next access to a different row pays a clean ACT+CAS (the paper's
	// 88-cycle type-Y access) instead of precharge-on-demand. Zero keeps
	// rows open indefinitely (pure open-page).
	CloseTimeout Cycle

	// TREFI and TRFC enable refresh modeling: every TREFI cycles each
	// bank becomes unavailable for TRFC cycles (all-bank refresh,
	// staggered across banks). Zero TREFI disables refresh — the paper's
	// methodology does not model it, so the standard configs leave it
	// off; enable it for realism studies (DDR3: TREFI ~7.8 us = 24960
	// cycles at 3.2 GHz, TRFC ~160-350 ns = 512-1120 cycles).
	TREFI Cycle
	TRFC  Cycle
}

// Cycle aliases the simulator's cycle type for convenience.
type Cycle = sim.Cycle

// OffChipConfig returns the paper's commodity DRAM: 2 channels, 8 banks,
// 2 KB rows, tCAS=tACT=tRP=36 and tRAS=144 processor cycles (9-9-9-36 DRAM
// cycles at an 800 MHz bus under a 3.2 GHz core), 16-cycle line burst.
func OffChipConfig() Config {
	return Config{
		Name:            "offchip",
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        2048,
		TACT:            36,
		TCAS:            36,
		TRP:             36,
		TRAS:            144,
		BurstLine:       16,
		CloseTimeout:    160,
	}
}

// StackedConfig returns the paper's die-stacked DRAM: 4 channels, 128-bit
// bus at twice the frequency — tACT=tCAS=tRP=18, tRAS=72 processor cycles,
// 4-cycle line burst.
func StackedConfig() Config {
	return Config{
		Name:            "stacked",
		Channels:        4,
		BanksPerChannel: 16,
		RowBytes:        2048,
		TACT:            18,
		TCAS:            18,
		TRP:             18,
		TRAS:            72,
		BurstLine:       4,
		CloseTimeout:    96,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 {
		return fmt.Errorf("dram: %s: channels and banks must be positive", c.Name)
	}
	if c.RowBytes < memaddr.LineSizeBytes {
		return fmt.Errorf("dram: %s: RowBytes %d smaller than a line", c.Name, c.RowBytes)
	}
	if c.BurstLine == 0 {
		return fmt.Errorf("dram: %s: BurstLine must be positive", c.Name)
	}
	return nil
}

// LinesPerRow returns how many 64 B lines fit in one row buffer.
func (c Config) LinesPerRow() int { return c.RowBytes / memaddr.LineSizeBytes }

const noRow = ^uint64(0)

type bank struct {
	openRow  uint64 // noRow when closed
	ready    Cycle  // earliest cycle the bank accepts its next command
	actAt    Cycle  // activation time of the open row (for tRAS)
	lastUse  Cycle  // last column command (for the idle-close timer)
	accesses uint64 // read requests decoded to this bank (phase telemetry)
}

// The three bank-state transitions below are the DRAM protocol's legal
// moves. Under -tags invariants each asserts its precondition — the
// state-machine legality rules a real device enforces electrically and a
// timing model can only enforce by construction: an ACT may only target a
// precharged (closed) bank, a CAS may only target the currently open row,
// and a PRE may only close an open row after tRAS has elapsed.

// activate opens row in the bank; ACT requires a precharged bank.
//
//alloyvet:hotpath
func (b *bank) activate(row uint64, at Cycle) {
	if invariants.Enabled && b.openRow != noRow {
		invariants.Failf("dram: ACT row %d at cycle %d on bank with open row %d (precharge first)", row, at, b.openRow)
	}
	b.openRow = row
	b.actAt = at
}

// cas validates a column command: the addressed row must be open.
//
//alloyvet:hotpath
func (b *bank) cas(row uint64, at Cycle) {
	if invariants.Enabled && b.openRow != row {
		if b.openRow == noRow {
			invariants.Failf("dram: CAS row %d at cycle %d on closed bank (activate first)", row, at)
		}
		invariants.Failf("dram: CAS row %d at cycle %d but bank has row %d open", row, at, b.openRow)
	}
}

// precharge closes the bank's open row; PRE requires an open row and must
// respect tRAS from the row's activation.
//
//alloyvet:hotpath
func (b *bank) precharge(at, tRAS Cycle) {
	if invariants.Enabled {
		if b.openRow == noRow {
			invariants.Failf("dram: PRE at cycle %d on already-closed bank", at)
		}
		if at < b.actAt+tRAS {
			invariants.Failf("dram: PRE at cycle %d violates tRAS (row opened at %d, tRAS %d)", at, b.actAt, tRAS)
		}
	}
	b.openRow = noRow
}

type channel struct {
	busReady   Cycle
	writeReady Cycle // low-priority write-drain rail
}

// Stats aggregates device activity.
type Stats struct {
	Reads         uint64
	Writes        uint64
	RowHits       uint64
	RowMisses     uint64 // activation on a closed bank
	RowConflict   uint64 // precharge + activation
	BusBusy       Cycle  // cumulative across channels
	TotalWait     Cycle  // cumulative cycles requests waited for their bank
	RefreshStalls uint64 // accesses delayed by a refresh window
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflict
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Result describes one serviced request. The intermediate timestamps
// telescope the service time into the segments the obs tracer exports:
// arrival→Start is bank queueing, Start→CASDone is the bank's ACT+CAS
// work, CASDone→BusStart is data-bus queueing, and BusStart→Done is the
// burst transfer.
type Result struct {
	Done     Cycle // cycle the last data beat arrives
	Start    Cycle // cycle the request began occupying its bank
	CASDone  Cycle // cycle the column access completes (first data ready)
	BusStart Cycle // cycle the data burst begins on the channel bus
	RowHit   bool
}

// DRAM is a multi-channel device instance.
type DRAM struct {
	cfg      Config
	banks    []bank
	channels []channel
	// Row-to-bank decode runs on every access; when the geometry is a
	// power of two (all standard configs) the modulo chain reduces to
	// shifts and masks.
	geoPow2 bool
	chMask  uint64 // Channels-1
	chShift uint   // log2(Channels)
	bkMask  uint64 // BanksPerChannel-1
	// linesPerRow is cfg.LinesPerRow(), fixed at construction for the
	// per-access line-to-row decode.
	linesPerRow uint64
	stats       Stats
}

// New constructs a device from the config.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Channels * cfg.BanksPerChannel
	banks := make([]bank, n)
	for i := range banks {
		banks[i].openRow = noRow
	}
	d := &DRAM{
		cfg:         cfg,
		banks:       banks,
		channels:    make([]channel, cfg.Channels),
		linesPerRow: uint64(cfg.LinesPerRow()),
	}
	ch, bk := uint64(cfg.Channels), uint64(cfg.BanksPerChannel)
	if ch&(ch-1) == 0 && bk&(bk-1) == 0 {
		d.geoPow2 = true
		d.chMask = ch - 1
		d.chShift = uint(bits.TrailingZeros64(ch))
		d.bkMask = bk - 1
	}
	return d, nil
}

// bankOf decodes a row index into its channel, per-channel bank, and flat
// bank index.
//
//alloyvet:hotpath
func (d *DRAM) bankOf(row uint64) (ch, bk, idx int) {
	if d.geoPow2 {
		ch = int(row & d.chMask)
		bk = int((row >> d.chShift) & d.bkMask)
	} else {
		ch = int(row % uint64(d.cfg.Channels))
		bk = int(row/uint64(d.cfg.Channels)) % d.cfg.BanksPerChannel
	}
	return ch, bk, ch*d.cfg.BanksPerChannel + bk
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *DRAM {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration. It copies the whole struct, so
// per-access callers read BurstLine instead.
func (d *DRAM) Config() Config { return d.cfg }

// BurstLine returns the data-bus occupancy, in cycles, of one 64 B line.
func (d *DRAM) BurstLine() Cycle { return d.cfg.BurstLine }

// Stats returns a copy of the activity counters.
func (d *DRAM) Stats() Stats { return d.stats }

// RowOfLine maps a line address to its global row index: consecutive lines
// share a row, consecutive rows rotate across channels then banks. This is
// the device-side mapping used by off-chip memory; DRAM-cache organizations
// compute their own row index and call AccessRow directly.
func (d *DRAM) RowOfLine(line memaddr.Line) uint64 {
	return uint64(line) / d.linesPerRow
}

// AccessLine services a line-granularity request arriving at cycle now.
func (d *DRAM) AccessLine(now Cycle, line memaddr.Line, write bool) Result {
	var r Result
	d.AccessRowInto(now, d.RowOfLine(line), d.cfg.BurstLine, write, &r)
	return r
}

// AccessLineInto is AccessLine writing its Result into out, the
// copy-free form the simulation hot path uses.
//
//alloyvet:hotpath
func (d *DRAM) AccessLineInto(now Cycle, line memaddr.Line, write bool, out *Result) {
	d.AccessRowInto(now, d.RowOfLine(line), d.cfg.BurstLine, write, out)
}

// AccessRow services a request for a given global row index with an
// explicit data-bus burst length (in cycles). The Alloy Cache uses a burst
// of 5 cycles for its 80 B TAD; LH-Cache streams 3 tag lines (12 cycles)
// then a data line (4 cycles).
//
// Reads follow the full bank/row/bus timing. Writes model the
// read-priority scheduling of real memory controllers: they are buffered
// and drained on a per-channel low-priority rail, consuming bandwidth and
// backpressuring the write buffer without ever delaying reads. (Without
// this, bursty store streams reserve banks far into the future and every
// read queues behind them — the opposite of how controllers schedule.)
//
//alloyvet:hotpath
func (d *DRAM) AccessRow(now Cycle, row uint64, burst Cycle, write bool) Result {
	var r Result
	d.AccessRowInto(now, row, burst, write, &r)
	return r
}

// AccessRowInto is AccessRow writing its Result into out instead of
// returning it. Organizations store results directly into the caller's
// AccessResult.First, which keeps the demand path free of intermediate
// Result copies.
//
//alloyvet:hotpath
func (d *DRAM) AccessRowInto(now Cycle, row uint64, burst Cycle, write bool, out *Result) {
	ch, bk, idx := d.bankOf(row)
	b := &d.banks[idx]
	c := &d.channels[ch]

	if write {
		d.stats.Writes++
		start := now
		if c.writeReady > start {
			start = c.writeReady
		}
		d.stats.TotalWait += start - now
		// Drained writes are batched per row (~8 writes amortize one
		// activation), so the effective per-write cost is the burst plus
		// an eighth of the row-open overhead.
		casDone := start + (d.cfg.TACT+d.cfg.TCAS)/8
		done := casDone + burst
		c.writeReady = done
		d.stats.BusBusy += burst
		// Field by field: a composite literal is built in a stack
		// temporary and copied out with 16-byte loads that straddle its
		// 8-byte stores, which the CPU cannot forward.
		out.Done, out.Start, out.CASDone, out.BusStart = done, start, casDone, casDone
		out.RowHit = false
		return
	}
	d.stats.Reads++
	b.accesses++

	start := now
	if b.ready > start {
		start = b.ready
	}
	start = d.refreshAdjust(start, ch, bk)
	d.stats.TotalWait += start - now

	// Adaptive page policy: precharge banks left idle past the timeout,
	// provided the background precharge (respecting tRAS) finished.
	if d.cfg.CloseTimeout > 0 && b.openRow != noRow && start >= b.lastUse+d.cfg.CloseTimeout {
		preDone := b.lastUse
		if min := b.actAt + d.cfg.TRAS; min > preDone {
			preDone = min
		}
		if preDone+d.cfg.TRP <= start {
			b.precharge(preDone, d.cfg.TRAS)
		}
	}

	var casDone Cycle
	rowHit := false
	var bankNext Cycle // earliest next command to this bank
	switch {
	case b.openRow == row:
		rowHit = true
		d.stats.RowHits++
		b.cas(row, start)
		casDone = start + d.cfg.TCAS
		// Back-to-back column accesses to an open row pipeline at the
		// burst rate (tCCD/bus-limited), not the CAS latency: streams
		// read one line per burst slot.
		bankNext = start + burst
	case b.openRow == noRow:
		d.stats.RowMisses++
		actStart := start
		b.activate(row, actStart)
		b.cas(row, actStart+d.cfg.TACT)
		casDone = actStart + d.cfg.TACT + d.cfg.TCAS
		bankNext = casDone
	default:
		d.stats.RowConflict++
		preStart := start
		if min := b.actAt + d.cfg.TRAS; min > preStart {
			preStart = min
		}
		b.precharge(preStart, d.cfg.TRAS)
		actStart := preStart + d.cfg.TRP
		b.activate(row, actStart)
		b.cas(row, actStart+d.cfg.TACT)
		casDone = actStart + d.cfg.TACT + d.cfg.TCAS
		bankNext = casDone
	}

	busStart := casDone
	if c.busReady > busStart {
		busStart = c.busReady
	}
	done := busStart + burst
	c.busReady = done
	d.stats.BusBusy += burst
	b.ready = bankNext
	b.lastUse = casDone

	out.Done, out.Start, out.CASDone, out.BusStart = done, start, casDone, busStart
	out.RowHit = rowHit
}

// refreshAdjust pushes a command start time out of any refresh window.
// Refresh windows are staggered per bank: bank i of a channel refreshes at
// phase i*TREFI/banks within each TREFI period. A refresh also closes the
// bank's row.
func (d *DRAM) refreshAdjust(start Cycle, ch, bk int) Cycle {
	if d.cfg.TREFI == 0 || d.cfg.TRFC == 0 {
		return start
	}
	phase := sim.Ticks(bk) * d.cfg.TREFI / sim.Ticks(d.cfg.BanksPerChannel)
	offset := (start + d.cfg.TREFI - phase%d.cfg.TREFI) % d.cfg.TREFI
	if offset < d.cfg.TRFC {
		b := &d.banks[ch*d.cfg.BanksPerChannel+bk]
		// Refresh precharges the bank unconditionally (PRE-all is a NOP on
		// closed banks, so this is not a b.precharge transition).
		b.openRow = noRow
		d.stats.RefreshStalls++
		return start + (d.cfg.TRFC - offset)
	}
	return start
}

// PeekRowOpen reports whether an access to the row would be a row-buffer
// hit right now, without scheduling anything. DRAM-cache organizations use
// this when accounting latency components.
func (d *DRAM) PeekRowOpen(row uint64) bool {
	_, _, idx := d.bankOf(row)
	return d.banks[idx].openRow == row
}

// Reset clears bank state and statistics; used between warmup and
// measurement phases.
func (d *DRAM) Reset() {
	for i := range d.banks {
		d.banks[i] = bank{openRow: noRow}
	}
	for i := range d.channels {
		d.channels[i] = channel{}
	}
	d.stats = Stats{}
}
