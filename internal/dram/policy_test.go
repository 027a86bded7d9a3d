package dram

import (
	"testing"
	"testing/quick"

	"alloysim/internal/sim"
)

// Tests for the controller-policy aspects of the model: the read-priority
// write rail, the adaptive page-close timer, and open-row burst pacing.

func TestWritesDoNotDelayReads(t *testing.T) {
	cfg := StackedConfig()
	a := MustNew(cfg)
	b := MustNew(cfg)
	// Device a: a long train of writes to row 0, then one read.
	now := Cycle(0)
	for i := 0; i < 50; i++ {
		a.AccessRow(now, 0, cfg.BurstLine, true)
	}
	ra := a.AccessRow(now, 0, cfg.BurstLine, false)
	// Device b: the same read with no writes at all.
	rb := b.AccessRow(now, 0, cfg.BurstLine, false)
	if ra.Done != rb.Done {
		t.Fatalf("writes delayed a read: with=%d without=%d", ra.Done, rb.Done)
	}
}

func TestWriteRailSerializesWrites(t *testing.T) {
	cfg := StackedConfig()
	d := MustNew(cfg)
	r1 := d.AccessRow(0, 0, cfg.BurstLine, true)
	r2 := d.AccessRow(0, 0, cfg.BurstLine, true)
	if r2.Done <= r1.Done {
		t.Fatalf("writes did not serialize on the drain rail: %d then %d", r1.Done, r2.Done)
	}
}

func TestWriteRailPerChannel(t *testing.T) {
	cfg := StackedConfig()
	d := MustNew(cfg)
	// Rows 0 and 1 are on different channels: their writes drain in
	// parallel.
	r1 := d.AccessRow(0, 0, cfg.BurstLine, true)
	r2 := d.AccessRow(0, 1, cfg.BurstLine, true)
	if r1.Done != r2.Done {
		t.Fatalf("cross-channel writes serialized: %d vs %d", r1.Done, r2.Done)
	}
}

func TestIdleBankAutoCloses(t *testing.T) {
	cfg := StackedConfig()
	d := MustNew(cfg)
	d.AccessRow(0, 0, cfg.BurstLine, false) // opens row 0
	// Conflict long after the close timeout: should pay a clean
	// ACT+CAS+burst (40 cycles), not precharge-on-demand.
	stride := uint64(cfg.Channels * cfg.BanksPerChannel)
	far := Cycle(100_000)
	r := d.AccessRow(far, stride, cfg.BurstLine, false)
	want := cfg.TACT + cfg.TCAS + cfg.BurstLine
	if got := r.Done - far; got != want {
		t.Fatalf("post-idle conflict latency = %d, want clean %d", got, want)
	}
}

func TestIdleCloseAlsoDropsRowHits(t *testing.T) {
	cfg := StackedConfig()
	d := MustNew(cfg)
	d.AccessRow(0, 0, cfg.BurstLine, false)
	far := Cycle(100_000)
	r := d.AccessRow(far, 0, cfg.BurstLine, false)
	if r.RowHit {
		t.Fatal("row reported open after the close timeout")
	}
}

func TestRowStaysOpenWithinTimeout(t *testing.T) {
	cfg := StackedConfig()
	d := MustNew(cfg)
	r1 := d.AccessRow(0, 0, cfg.BurstLine, false)
	r2 := d.AccessRow(r1.Done+cfg.CloseTimeout/2, 0, cfg.BurstLine, false)
	if !r2.RowHit {
		t.Fatal("row closed before the timeout elapsed")
	}
}

func TestOpenRowStreamsAtBurstRate(t *testing.T) {
	// Consecutive reads to one open row pace at the burst rate, not tCAS:
	// a stream reads one line per 4 cycles on the stacked bus.
	cfg := StackedConfig()
	d := MustNew(cfg)
	d.AccessRow(0, 0, cfg.BurstLine, false) // opens the row
	second := d.AccessRow(0, 0, cfg.BurstLine, false)
	// The second access refills the CAS pipeline; from the third on, the
	// stream is purely burst-paced.
	var prev Cycle = second.Done
	for i := 0; i < 8; i++ {
		r := d.AccessRow(0, 0, cfg.BurstLine, false)
		if got := r.Done - prev; got != cfg.BurstLine {
			t.Fatalf("stream spacing %d, want %d (burst-paced)", got, cfg.BurstLine)
		}
		prev = r.Done
	}
}

func TestPureOpenPageWhenTimeoutZero(t *testing.T) {
	cfg := StackedConfig()
	cfg.CloseTimeout = 0
	d := MustNew(cfg)
	d.AccessRow(0, 0, cfg.BurstLine, false)
	r := d.AccessRow(1_000_000, 0, cfg.BurstLine, false)
	if !r.RowHit {
		t.Fatal("open-page row closed with CloseTimeout=0")
	}
}

// Property: reads never complete before their intrinsic minimum, and
// writes never delay a subsequent read on the same bank, for arbitrary
// interleavings.
func TestQuickReadsImmuneToWrites(t *testing.T) {
	f := func(ops []uint8) bool {
		cfg := StackedConfig()
		withWrites := MustNew(cfg)
		readsOnly := MustNew(cfg)
		now := Cycle(0)
		for _, op := range ops {
			row := uint64(op % 8)
			if op&0x80 != 0 {
				withWrites.AccessRow(now, row, cfg.BurstLine, true)
				continue
			}
			a := withWrites.AccessRow(now, row, cfg.BurstLine, false)
			b := readsOnly.AccessRow(now, row, cfg.BurstLine, false)
			if a.Done != b.Done {
				return false
			}
			now += 7
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	for _, cfg := range []Config{OffChipConfig(), StackedConfig()} {
		if cfg.TREFI != 0 {
			t.Errorf("%s: refresh enabled by default; the paper does not model it", cfg.Name)
		}
	}
}

func TestRefreshStallsAccesses(t *testing.T) {
	cfg := StackedConfig()
	cfg.TREFI = 1000
	cfg.TRFC = 100
	d := MustNew(cfg)
	// Bank 0 refreshes in windows [0,100), [1000,1100), ... An access
	// arriving at cycle 10 must wait until the window ends.
	r := d.AccessRow(10, 0, cfg.BurstLine, false)
	if r.Start < 100 {
		t.Fatalf("access started at %d inside a refresh window", r.Start)
	}
	if d.Stats().RefreshStalls != 1 {
		t.Fatalf("RefreshStalls = %d, want 1", d.Stats().RefreshStalls)
	}
}

func TestRefreshClosesRow(t *testing.T) {
	cfg := StackedConfig()
	cfg.TREFI = 10_000
	cfg.TRFC = 200
	cfg.CloseTimeout = 0 // isolate the refresh effect
	d := MustNew(cfg)
	d.AccessRow(300, 0, cfg.BurstLine, false) // opens row 0 after the window
	// Next access lands inside the following refresh window for bank 0
	// at cycle 10_000: the refresh must close the row.
	r := d.AccessRow(10_050, 0, cfg.BurstLine, false)
	if r.RowHit {
		t.Fatal("row survived a refresh")
	}
}

func TestRefreshStaggeredAcrossBanks(t *testing.T) {
	cfg := StackedConfig()
	cfg.TREFI = 1600
	cfg.TRFC = 100
	d := MustNew(cfg)
	// Bank 0 (row 0) refreshes at phase 0; a different bank of the same
	// channel refreshes at a later phase, so an access at cycle 10
	// proceeds immediately there.
	otherBankRow := uint64(cfg.Channels) * 4 // channel 0, bank 4
	r := d.AccessRow(10, otherBankRow, cfg.BurstLine, false)
	if r.Start != 10 {
		t.Fatalf("staggered bank stalled at %d, want 10", r.Start)
	}
}

// Property: on a single bank, a later-arriving read never completes
// before an earlier one (per-bank FCFS), and completion is monotone in
// arrival time for identical request sequences.
func TestQuickPerBankFCFS(t *testing.T) {
	f := func(gaps []uint8) bool {
		cfg := StackedConfig()
		d := MustNew(cfg)
		now := Cycle(0)
		var lastDone Cycle
		for i, g := range gaps {
			now += sim.Ticks(int(g))
			// Alternate rows on the same bank (bank 0 of channel 0).
			row := uint64(cfg.Channels*cfg.BanksPerChannel) * uint64(i%3)
			r := d.AccessRow(now, row, cfg.BurstLine, false)
			if r.Done <= lastDone {
				return false
			}
			lastDone = r.Done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delaying a request's arrival never makes it finish earlier,
// holding the preceding sequence fixed.
func TestQuickArrivalMonotonicity(t *testing.T) {
	f := func(delay uint8) bool {
		mk := func(extra Cycle) Cycle {
			cfg := StackedConfig()
			d := MustNew(cfg)
			d.AccessRow(0, 0, cfg.BurstLine, false)
			d.AccessRow(5, 64, cfg.BurstLine, false)
			r := d.AccessRow(10+extra, 128, cfg.BurstLine, false)
			return r.Done
		}
		return mk(sim.Ticks(int(delay))) >= mk(0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
