package dramcache

import (
	"testing"

	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
)

const testCap = 4 << 20 // 4 MB keeps tag arrays small in tests

func stacked() *dram.DRAM { return dram.MustNew(dram.StackedConfig()) }

// access is one demand access of o, its result returned by value.
func access(o Organization, now Cycle, line memaddr.Line, write bool) AccessResult {
	var r AccessResult
	o.AccessInto(now, line, write, &r)
	return r
}

// fill inserts a line so a later access hits.
func fillLine(t *testing.T, o Organization, line memaddr.Line) {
	t.Helper()
	r := access(o, 0, line, false)
	if r.Hit {
		t.Fatalf("%s: line %d already present", o.Name(), line)
	}
	if !r.Allocated {
		t.Fatalf("%s: read miss did not allocate", o.Name())
	}
}

func TestSRAMTagHitLatencyMatchesFig3(t *testing.T) {
	// Figure 3(b): SRAM-Tag services a hit in TSL(24) + ACT(18) + CAS(18)
	// + burst(4) = 64 cycles when the row is closed.
	o, err := NewSRAMTag(testCap, 32, stacked())
	if err != nil {
		t.Fatal(err)
	}
	fillLine(t, o, 1000)
	start := Cycle(100000)
	// Bank rows are closed (the miss consumed no DRAM-cache bandwidth), so
	// the hit pays the full ACT: 24 + 18 + 18 + 4 = 64.
	r := access(o, start, 1000, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	if got := r.DataReady - start; got != 64 {
		t.Fatalf("closed-row SRAM-Tag hit latency = %d, want 64", got)
	}
	// With the row left open by that access, a second hit is CAS-only:
	// 24 + 18 + 4 = 46.
	r2 := access(o, r.DataReady, 1000, false)
	if got := r2.DataReady - r.DataReady; got != 46 {
		t.Fatalf("open-row SRAM-Tag hit latency = %d, want 46", got)
	}
	if r.TagKnown != start+SRAMTagLatency {
		t.Fatalf("TagKnown = %d, want %d", r.TagKnown, start+SRAMTagLatency)
	}
}

func TestSRAMTagColdHit64Cycles(t *testing.T) {
	st := stacked()
	o, _ := NewSRAMTag(testCap, 32, st)
	fillLine(t, o, 1000)
	st.Reset() // close all rows: the paper's isolated type-Y access
	r := access(o, 0, 1000, false)
	if got := r.DataReady; got != 64 {
		t.Fatalf("cold SRAM-Tag hit latency = %d, want 64 (Fig 3b)", got)
	}
}

func TestLHCacheColdHit71Cycles(t *testing.T) {
	// Figure 3(c) minus the 24-cycle MissMap (charged by the system):
	// ACT(18)+CAS(18)+3 tag lines(12)+check(1)+CAS(18)+burst(4) = 71.
	st := stacked()
	o, err := NewLHCache(testCap, st)
	if err != nil {
		t.Fatal(err)
	}
	fillLine(t, o, 1000)
	st.Reset()
	r := access(o, 0, 1000, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	if r.DataReady != 71 {
		t.Fatalf("cold LH hit latency = %d, want 71", r.DataReady)
	}
	if r.TagKnown != 49 { // 18+18+12+1
		t.Fatalf("TagKnown = %d, want 49", r.TagKnown)
	}
}

func TestAlloyColdHit41Cycles(t *testing.T) {
	// Figure 3(d)-like: one TAD burst, ACT(18)+CAS(18)+burst(5) = 41.
	st := stacked()
	o, err := NewAlloy(testCap, st)
	if err != nil {
		t.Fatal(err)
	}
	fillLine(t, o, 1000)
	st.Reset()
	r := access(o, 0, 1000, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	if r.DataReady != 41 {
		t.Fatalf("cold Alloy hit = %d, want 41", r.DataReady)
	}
	if r.TagKnown != 42 {
		t.Fatalf("TagKnown = %d, want 42", r.TagKnown)
	}
}

func TestAlloyRowHit23Cycles(t *testing.T) {
	st := stacked()
	o, _ := NewAlloy(testCap, st)
	fillLine(t, o, 1000)
	fillLine(t, o, 1001) // same row: 28 consecutive sets per row
	st.Reset()
	r1 := access(o, 0, 1000, false)
	r2 := access(o, r1.DataReady, 1001, false)
	if !r2.RowHit {
		t.Fatal("consecutive line should be a row-buffer hit")
	}
	if got := r2.DataReady - r1.DataReady; got != 23 {
		t.Fatalf("row-hit Alloy latency = %d, want 23 (CAS+burst)", got)
	}
}

func TestIdealLOLatencies(t *testing.T) {
	st := stacked()
	o, err := NewIdealLO(testCap, st)
	if err != nil {
		t.Fatal(err)
	}
	fillLine(t, o, 1000)
	st.Reset()
	r := access(o, 0, 1000, false)
	if r.DataReady != 40 {
		t.Fatalf("cold IDEAL-LO hit = %d, want 40", r.DataReady)
	}
	if r.TagKnown != 0 {
		t.Fatalf("IDEAL-LO TagKnown = %d, want 0 (instant)", r.TagKnown)
	}
	fillLine(t, o, 1001)
	r1 := access(o, 50000, 1000, false)
	r2 := access(o, r1.DataReady, 1001, false)
	if got := r2.DataReady - r1.DataReady; got != 22 {
		t.Fatalf("row-hit IDEAL-LO = %d, want 22", got)
	}
}

func TestMissDoesNotProduceData(t *testing.T) {
	for _, o := range allOrgs(t) {
		r := access(o, 0, 42, false)
		if r.Hit {
			t.Errorf("%s: cold access hit", o.Name())
		}
		if !r.Allocated {
			t.Errorf("%s: read miss did not allocate", o.Name())
		}
		if !o.Contains(42) {
			t.Errorf("%s: allocated line not present", o.Name())
		}
	}
}

func TestWriteMissDoesNotAllocate(t *testing.T) {
	for _, o := range allOrgs(t) {
		r := access(o, 0, 42, true)
		if r.Hit || r.Allocated {
			t.Errorf("%s: write miss hit=%v allocated=%v", o.Name(), r.Hit, r.Allocated)
		}
		if o.Contains(42) {
			t.Errorf("%s: write miss allocated", o.Name())
		}
	}
}

func TestWriteHitUpdatesInPlace(t *testing.T) {
	for _, o := range allOrgs(t) {
		fillLine(t, o, 7)
		r := access(o, 1000, 7, true)
		if !r.Hit {
			t.Errorf("%s: write to present line missed", o.Name())
			continue
		}
		if r.DataReady <= 1000 {
			t.Errorf("%s: write hit DataReady %d not in the future", o.Name(), r.DataReady)
		}
	}
}

func TestVictimReportedOnConflict(t *testing.T) {
	st := stacked()
	o, _ := NewAlloy(testCap, st)
	sets := uint64(testCap / 2048 * AlloyTADsPerRow)
	fillLine(t, o, 5)
	r := access(o, 0, memaddr.Line(5+sets), false) // same set
	if !r.Victim.Valid || r.Victim.Line != 5 {
		t.Fatalf("victim %+v, want line 5", r.Victim)
	}
	if o.Contains(5) {
		t.Fatal("victim still present")
	}
}

func TestFillChargesTraffic(t *testing.T) {
	for _, o := range allOrgs(t) {
		st := o.(interface{ stackedStats() dram.Stats })
		before := st.stackedStats().Writes
		res := o.Fill(0, 99)
		if res.Done == 0 {
			t.Errorf("%s: fill completed instantly", o.Name())
		}
		if st.stackedStats().Writes <= before {
			t.Errorf("%s: fill did not write to stacked DRAM", o.Name())
		}
	}
}

func TestAlloyTwoWay(t *testing.T) {
	st := stacked()
	o, err := NewAlloy(testCap, st, AlloyWithAssoc(2))
	if err != nil {
		t.Fatal(err)
	}
	// Two lines mapping to the same 2-way set coexist.
	sets := uint64(testCap / 2048 * AlloyTADsPerRow / 2)
	fillLine(t, o, 5)
	fillLine(t, o, memaddr.Line(5+sets))
	if !o.Contains(5) || !o.Contains(memaddr.Line(5+sets)) {
		t.Fatal("2-way set did not hold both lines")
	}
	// Burst is doubled: cold access = ACT+CAS+10 = 46.
	st.Reset()
	r := access(o, 0, 5, false)
	if r.DataReady != 46 {
		t.Fatalf("2-way cold hit = %d, want 46", r.DataReady)
	}
}

func TestAlloyBurst8(t *testing.T) {
	st := stacked()
	o, err := NewAlloy(testCap, st, AlloyWithBurst(8))
	if err != nil {
		t.Fatal(err)
	}
	fillLine(t, o, 5)
	st.Reset()
	r := access(o, 0, 5, false)
	if r.DataReady != 44 { // 18+18+8
		t.Fatalf("burst-8 cold hit = %d, want 44", r.DataReady)
	}
}

func TestLHDirectMappedFasterThan29Way(t *testing.T) {
	st1, st2 := stacked(), stacked()
	lh29, _ := NewLHCache(testCap, st1)
	lh1, _ := NewLHCache(testCap, st2, LHWithAssoc(1))
	fillLine(t, lh29, 1000)
	fillLine(t, lh1, 1000)
	st1.Reset()
	st2.Reset()
	r29 := access(lh29, 0, 1000, false)
	r1 := access(lh1, 0, 1000, false)
	if r1.DataReady >= r29.DataReady {
		t.Fatalf("LH 1-way (%d) not faster than 29-way (%d)", r1.DataReady, r29.DataReady)
	}
}

func TestRowBufferLocalityContrast(t *testing.T) {
	// Streaming through consecutive lines: Alloy gets row hits, LH 29-way
	// essentially none (§2.7: 56% vs <0.1%).
	stA, stL := stacked(), stacked()
	alloy, _ := NewAlloy(testCap, stA)
	lh, _ := NewLHCache(testCap, stL)
	now := Cycle(0)
	for l := memaddr.Line(0); l < 2000; l++ {
		r := access(alloy, now, l, false)
		now = r.TagKnown
	}
	now = 0
	for l := memaddr.Line(0); l < 2000; l++ {
		r := access(lh, now, l, false)
		now = r.TagKnown
	}
	aHit := alloy.RowBufferHitRate()
	lHit := lh.RowBufferHitRate()
	if aHit < 0.5 {
		t.Fatalf("Alloy streaming row-hit rate = %v, want > 0.5", aHit)
	}
	if lHit > 0.1 {
		t.Fatalf("LH-Cache streaming row-hit rate = %v, want ~0", lHit)
	}
}

func TestCapacityBytes(t *testing.T) {
	st := stacked()
	rows := uint64(testCap / 2048)
	alloy, _ := NewAlloy(testCap, st)
	if got := alloy.CapacityBytes(); got != rows*AlloyTADsPerRow*64 {
		t.Fatalf("Alloy capacity %d, want %d", got, rows*AlloyTADsPerRow*64)
	}
	lh, _ := NewLHCache(testCap, st)
	if got := lh.CapacityBytes(); got != rows*29*64 {
		t.Fatalf("LH capacity %d, want %d", got, rows*29*64)
	}
	sram, _ := NewSRAMTag(testCap, 32, st)
	if got := sram.CapacityBytes(); got != rows*32*64 {
		t.Fatalf("SRAM-Tag capacity %d, want %d", got, rows*32*64)
	}
	idealNoTag, _ := NewIdealLO(testCap, st, IdealNoTagOverhead())
	ideal, _ := NewIdealLO(testCap, st)
	if idealNoTag.CapacityBytes() <= ideal.CapacityBytes() {
		t.Fatal("NoTagOverhead should increase capacity")
	}
}

func TestConstructorValidation(t *testing.T) {
	st := stacked()
	if _, err := NewSRAMTag(testCap, 7, st); err == nil {
		t.Error("SRAM-Tag with assoc 7 accepted")
	}
	if _, err := NewSRAMTag(100, 32, st); err == nil {
		t.Error("sub-row SRAM-Tag capacity accepted")
	}
	if _, err := NewLHCache(testCap, st, LHWithAssoc(5)); err == nil {
		t.Error("LH with assoc 5 accepted")
	}
	if _, err := NewAlloy(testCap, st, AlloyWithAssoc(4)); err == nil {
		t.Error("Alloy with assoc 4 accepted")
	}
	if _, err := NewAlloy(testCap, st, AlloyWithBurst(0)); err == nil {
		t.Error("Alloy with burst 0 accepted")
	}
	if _, err := NewIdealLO(100, st); err == nil {
		t.Error("sub-row IdealLO capacity accepted")
	}
}

func TestHitLatencyMeanAccumulates(t *testing.T) {
	o, _ := NewAlloy(testCap, stacked())
	fillLine(t, o, 5)
	access(o, 10000, 5, false)
	if o.HitLatencyMean() <= 0 {
		t.Fatal("hit latency mean not recorded")
	}
	if o.TagStats().Hits != 1 {
		t.Fatalf("hits = %d, want 1", o.TagStats().Hits)
	}
}

// allOrgs builds one instance of every organization for shared behavioral
// tests, each with its own stacked device.
func allOrgs(t *testing.T) []Organization {
	t.Helper()
	var orgs []Organization
	mk := func(o Organization, err error) {
		if err != nil {
			t.Fatal(err)
		}
		orgs = append(orgs, o)
	}
	mk(NewSRAMTag(testCap, 32, stacked()))
	mk(NewSRAMTag(testCap, 1, stacked()))
	o, err := NewLHCache(testCap, stacked())
	mk(o, err)
	o2, err := NewLHCache(testCap, stacked(), LHWithAssoc(1))
	mk(o2, err)
	o3, err := NewLHCache(testCap, stacked(), LHWithPolicy("random"))
	mk(o3, err)
	a, err := NewAlloy(testCap, stacked())
	mk(a, err)
	a2, err := NewAlloy(testCap, stacked(), AlloyWithAssoc(2))
	mk(a2, err)
	i1, err := NewIdealLO(testCap, stacked())
	mk(i1, err)
	i2, err := NewIdealLO(testCap, stacked(), IdealNoTagOverhead())
	mk(i2, err)
	return orgs
}
