package dram

import (
	"testing"
	"testing/quick"

	"alloysim/internal/memaddr"
	"alloysim/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", Channels: 0, BanksPerChannel: 8, RowBytes: 2048, BurstLine: 4},
		{Name: "b", Channels: 2, BanksPerChannel: 0, RowBytes: 2048, BurstLine: 4},
		{Name: "c", Channels: 2, BanksPerChannel: 8, RowBytes: 32, BurstLine: 4},
		{Name: "d", Channels: 2, BanksPerChannel: 8, RowBytes: 2048, BurstLine: 0},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %q accepted, want error", cfg.Name)
		}
	}
	for _, cfg := range []Config{OffChipConfig(), StackedConfig()} {
		if _, err := New(cfg); err != nil {
			t.Errorf("standard config %q rejected: %v", cfg.Name, err)
		}
	}
}

func TestPaperLatencyOffChip(t *testing.T) {
	// Figure 3(a): baseline memory services a row-miss access (type Y) in
	// ACT+CAS+BUS = 36+36+16 = 88 cycles, and a row-hit access (type X) in
	// CAS+BUS = 52 cycles.
	d := MustNew(OffChipConfig())
	r := d.AccessLine(0, 0, false)
	if r.Done != 88 {
		t.Fatalf("cold (type Y) latency = %d, want 88", r.Done)
	}
	if r.RowHit {
		t.Fatal("cold access reported row hit")
	}
	// Second access to the same row after the first completes: row hit.
	r2 := d.AccessLine(r.Done, 1, false)
	if !r2.RowHit {
		t.Fatal("same-row access not a row hit")
	}
	if got := r2.Done - r.Done; got != 52 {
		t.Fatalf("row-hit (type X) latency = %d, want 52", got)
	}
}

func TestPaperLatencyStacked(t *testing.T) {
	// Figure 3(d): IDEAL-LO services Y in ACT+CAS+BUS = 18+18+4 = 40 and X
	// in CAS+BUS = 22 cycles on the stacked device.
	d := MustNew(StackedConfig())
	r := d.AccessLine(0, 0, false)
	if r.Done != 40 {
		t.Fatalf("stacked cold latency = %d, want 40", r.Done)
	}
	r2 := d.AccessLine(r.Done, 1, false)
	if got := r2.Done - r.Done; got != 22 {
		t.Fatalf("stacked row-hit latency = %d, want 22", got)
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	d := MustNew(StackedConfig())
	cfg := d.Config()
	r1 := d.AccessLine(0, 0, false)
	// A line in a different row of the same bank: rows are interleaved
	// across channels then banks, so row+channels*banks shares the bank.
	stride := uint64(cfg.Channels * cfg.BanksPerChannel)
	conflictLine := memaddr.Line(stride * uint64(cfg.LinesPerRow()))
	if d.RowOfLine(conflictLine)%stride != 0 {
		t.Fatal("test setup: conflict line not on bank 0")
	}
	r2 := d.AccessLine(r1.Done, conflictLine, false)
	if r2.RowHit {
		t.Fatal("conflicting row reported row hit")
	}
	// Latency must include precharge: >= tRP + tACT + tCAS + burst. tRAS
	// may add more.
	min := cfg.TRP + cfg.TACT + cfg.TCAS + cfg.BurstLine
	if got := r2.Done - r1.Done; got < min {
		t.Fatalf("conflict latency %d < minimum %d", got, min)
	}
	if d.Stats().RowConflict != 1 {
		t.Fatalf("RowConflict = %d, want 1", d.Stats().RowConflict)
	}
}

func TestTRASEnforced(t *testing.T) {
	d := MustNew(StackedConfig())
	cfg := d.Config()
	stride := uint64(cfg.Channels * cfg.BanksPerChannel)
	// Open row 0 then immediately conflict: precharge must wait for tRAS.
	d.AccessRow(0, 0, cfg.BurstLine, false)
	r := d.AccessRow(1, stride, cfg.BurstLine, false)
	// ACT at 0, so precharge cannot start before tRAS=72; done >= 72+18+18+18+4.
	minDone := cfg.TRAS + cfg.TRP + cfg.TACT + cfg.TCAS + cfg.BurstLine
	if r.Done < minDone {
		t.Fatalf("conflict Done = %d, violates tRAS minimum %d", r.Done, minDone)
	}
}

func TestBankQueueing(t *testing.T) {
	d := MustNew(StackedConfig())
	// Two simultaneous requests to the same row serialize on the bank/bus.
	r1 := d.AccessLine(0, 0, false)
	r2 := d.AccessLine(0, 1, false)
	if r2.Done <= r1.Done {
		t.Fatalf("second request done %d <= first %d; no serialization", r2.Done, r1.Done)
	}
	if !r2.RowHit {
		t.Fatal("second same-row request should be row hit")
	}
}

func TestChannelParallelism(t *testing.T) {
	d := MustNew(StackedConfig())
	cfg := d.Config()
	// Rows 0 and 1 are on different channels: simultaneous requests overlap.
	r1 := d.AccessRow(0, 0, cfg.BurstLine, false)
	r2 := d.AccessRow(0, 1, cfg.BurstLine, false)
	if r1.Done != r2.Done {
		t.Fatalf("different channels should be independent: %d vs %d", r1.Done, r2.Done)
	}
}

func TestBusContentionWithinChannel(t *testing.T) {
	d := MustNew(StackedConfig())
	cfg := d.Config()
	stride := uint64(cfg.Channels) // rows 0 and stride share channel 0, different banks
	r1 := d.AccessRow(0, 0, cfg.BurstLine, false)
	r2 := d.AccessRow(0, stride, cfg.BurstLine, false)
	// Bank operations overlap but the data bus serializes the bursts.
	if r2.Done < r1.Done+cfg.BurstLine {
		t.Fatalf("bus not serialized: r1 done %d, r2 done %d", r1.Done, r2.Done)
	}
	if r2.Done > r1.Done+cfg.BurstLine {
		t.Fatalf("bank parallelism lost: r2 done %d, want %d", r2.Done, r1.Done+cfg.BurstLine)
	}
}

func TestWriteCounted(t *testing.T) {
	d := MustNew(OffChipConfig())
	d.AccessLine(0, 0, true)
	d.AccessLine(100, 0, false)
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("stats %+v, want 1 write 1 read", s)
	}
}

func TestRowHitRateStat(t *testing.T) {
	d := MustNew(StackedConfig())
	now := Cycle(0)
	for i := 0; i < 10; i++ {
		r := d.AccessLine(now, memaddr.Line(i), false)
		now = r.Done
	}
	// First access opens the row; remaining 9 hit (32 lines per row).
	if hr := d.Stats().RowHitRate(); hr < 0.89 || hr > 0.91 {
		t.Fatalf("row hit rate = %v, want 0.9", hr)
	}
}

func TestPeekRowOpen(t *testing.T) {
	d := MustNew(StackedConfig())
	if d.PeekRowOpen(7) {
		t.Fatal("row open before any access")
	}
	d.AccessRow(0, 7, 4, false)
	if !d.PeekRowOpen(7) {
		t.Fatal("row not open after access")
	}
}

func TestReset(t *testing.T) {
	d := MustNew(StackedConfig())
	d.AccessLine(0, 0, false)
	d.Reset()
	if d.Stats().Reads != 0 {
		t.Fatal("stats survive Reset")
	}
	r := d.AccessLine(0, 0, false)
	if r.RowHit {
		t.Fatal("row state survives Reset")
	}
}

// Property: latency is always at least CAS + burst and completion times per
// bank are monotone in arrival order.
func TestQuickLatencyFloor(t *testing.T) {
	f := func(rows []uint16, gaps []uint8) bool {
		d := MustNew(StackedConfig())
		cfg := d.Config()
		now := Cycle(0)
		var lastDonePerBank map[uint64]Cycle = map[uint64]Cycle{}
		for i, rw := range rows {
			if i < len(gaps) {
				now += sim.Ticks(int(gaps[i]))
			}
			row := uint64(rw % 64)
			r := d.AccessRow(now, row, cfg.BurstLine, false)
			if r.Done-now < cfg.TCAS+cfg.BurstLine {
				return false
			}
			bankKey := row % uint64(cfg.Channels*cfg.BanksPerChannel)
			if r.Done <= lastDonePerBank[bankKey] {
				return false
			}
			lastDonePerBank[bankKey] = r.Done
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
