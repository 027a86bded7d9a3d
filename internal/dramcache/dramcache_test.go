package dramcache

import (
	"testing"

	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
)

const testCap = 4 << 20 // 4 MB keeps tag arrays small in tests

func stacked() *dram.DRAM { return dram.MustNew(dram.StackedConfig()) }

// build constructs the named design over st as its organization type.
func build[T Organization](name string, capacity uint64, st *dram.DRAM) (T, error) {
	o, err := Build(name, Params{CapacityBytes: capacity, Stacked: st})
	if err != nil {
		var none T
		return none, err
	}
	return o.(T), nil
}

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
		t.Fatalf("%T: line %d already present", o, line)
	}
	if !r.Allocated {
		t.Fatalf("%T: read miss did not allocate", o)
	}
}

func TestSRAMTagHitLatencyMatchesFig3(t *testing.T) {
	// Figure 3(b): SRAM-Tag services a hit in TSL(24) + ACT(18) + CAS(18)
	// + burst(4) = 64 cycles when the row is closed.
	o, err := build[*SRAMTag]("sram-32", testCap, stacked())
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
	o, _ := build[*SRAMTag]("sram-32", testCap, st)
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
	o, err := build[*LHCache]("lh-29", testCap, st)
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
	o, err := build[*Alloy]("alloy", testCap, st)
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
	o, _ := build[*Alloy]("alloy", testCap, st)
	fillLine(t, o, 1000)
	fillLine(t, o, 1001) // same row: 28 consecutive sets per row
	st.Reset()
	r1 := access(o, 0, 1000, false)
	r2 := access(o, r1.DataReady, 1001, false)
	if !r2.First.RowHit {
		t.Fatal("consecutive line should be a row-buffer hit")
	}
	if got := r2.DataReady - r1.DataReady; got != 23 {
		t.Fatalf("row-hit Alloy latency = %d, want 23 (CAS+burst)", got)
	}
}

func TestIdealLOLatencies(t *testing.T) {
	st := stacked()
	o, err := build[*IdealLO]("ideal-lo", testCap, st)
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
	for _, n := range paperDesigns {
		o := buildDesign(t, n)
		r := access(o, 0, 42, false)
		if r.Hit {
			t.Errorf("%s: cold access hit", n)
		}
		if !r.Allocated {
			t.Errorf("%s: read miss did not allocate", n)
		}
		if !o.Contains(42) {
			t.Errorf("%s: allocated line not present", n)
		}
	}
}

func TestWriteMissDoesNotAllocate(t *testing.T) {
	for _, n := range paperDesigns {
		o := buildDesign(t, n)
		r := access(o, 0, 42, true)
		if r.Hit || r.Allocated {
			t.Errorf("%s: write miss hit=%v allocated=%v", n, r.Hit, r.Allocated)
		}
		if o.Contains(42) {
			t.Errorf("%s: write miss allocated", n)
		}
	}
}

func TestWriteHitUpdatesInPlace(t *testing.T) {
	for _, n := range paperDesigns {
		o := buildDesign(t, n)
		fillLine(t, o, 7)
		r := access(o, 1000, 7, true)
		if !r.Hit {
			t.Errorf("%s: write to present line missed", n)
			continue
		}
		if r.DataReady <= 1000 {
			t.Errorf("%s: write hit DataReady %d not in the future", n, r.DataReady)
		}
	}
}

func TestVictimReportedOnConflict(t *testing.T) {
	st := stacked()
	o, _ := build[*Alloy]("alloy", testCap, st)
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
	for _, n := range paperDesigns {
		o := buildDesign(t, n)
		st := o.(interface{ stackedStats() dram.Stats })
		before := st.stackedStats().Writes
		if o.Fill(0, 99) == 0 {
			t.Errorf("%s: fill completed instantly", n)
		}
		if st.stackedStats().Writes <= before {
			t.Errorf("%s: fill did not write to stacked DRAM", n)
		}
	}
}

func TestAlloyTwoWay(t *testing.T) {
	st := stacked()
	o, err := build[*Alloy]("alloy-2", testCap, st)
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
	o, err := build[*Alloy]("alloy-b8", testCap, st)
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
	lh29, _ := build[*LHCache]("lh-29", testCap, st1)
	lh1, _ := build[*LHCache]("lh-1", testCap, st2)
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
	alloy, _ := build[*Alloy]("alloy", testCap, stA)
	lh, _ := build[*LHCache]("lh-29", testCap, stL)
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

// lines is the line count of a design's tag store at testCap.
func lines(t *testing.T, name string) int {
	t.Helper()
	return TagStore(buildDesign(t, name)).Config().Lines()
}

func TestCapacityBytes(t *testing.T) {
	rows := testCap / 2048
	for _, c := range []struct {
		name        string
		linesPerRow int
	}{{"alloy", AlloyTADsPerRow}, {"lh-29", 29}, {"sram-32", 32}} {
		if got := lines(t, c.name); got != rows*c.linesPerRow {
			t.Fatalf("%s holds %d lines, want %d", c.name, got, rows*c.linesPerRow)
		}
	}
	if lines(t, "ideal-lo-notag") <= lines(t, "ideal-lo") {
		t.Fatal("NoTagOverhead should increase capacity")
	}
}

func TestConstructorValidation(t *testing.T) {
	st := stacked()
	if _, err := build[*SRAMTag]("sram-32", 100, st); err == nil {
		t.Error("sub-row SRAM-Tag capacity accepted")
	}
	if _, err := build[*IdealLO]("ideal-lo", 100, st); err == nil {
		t.Error("sub-row IdealLO capacity accepted")
	}
	if _, err := build[*Gemini]("gemini", 2048, st); err == nil {
		t.Error("one-row Gemini capacity accepted")
	}
	half := dram.StackedConfig()
	half.RowBytes = 1024
	narrow := dram.MustNew(half)
	if _, err := build[*SRAMTag]("sram-32", testCap, narrow); err == nil {
		t.Error("32-way SRAM-Tag set wider than a 16-line row accepted")
	}
	// A fixed layout must fit the row: LH-Cache's 29 data lines behind 3
	// tag lines take 2,048 B, and Alloy's 28 TADs 2,016 B. The designs
	// that keep every line of the row follow its size.
	for _, name := range []string{"lh-29", "lh-29-rand", "lh-1", "alloy", "alloy-2", "alloy-b8", "tdram", "ideal-lo", "gemini"} {
		if _, err := build[Organization](name, testCap, narrow); err == nil {
			t.Errorf("%s laid out in a 1024 B row accepted", name)
		}
	}
	for _, name := range []string{"sram-1", "ideal-lo-notag", "banshee"} {
		if _, err := build[Organization](name, testCap, narrow); err != nil {
			t.Errorf("%s in a 1024 B row: %v", name, err)
		}
	}
}

func TestHitLatencyAccumulates(t *testing.T) {
	o, _ := build[*Alloy]("alloy", testCap, stacked())
	fillLine(t, o, 5)
	access(o, 10000, 5, false)
	if o.hitLat.Value() <= 0 {
		t.Fatal("hit latency mean not recorded")
	}
	if o.TagStats().Hits != 1 {
		t.Fatalf("hits = %d, want 1", o.TagStats().Hits)
	}
}

// paperDesigns are the designs of the paper's comparisons that allocate on
// every read miss, for shared behavioral tests.
var paperDesigns = []string{"sram-32", "sram-1", "lh-29", "lh-1", "lh-29-rand", "alloy", "alloy-2", "ideal-lo", "ideal-lo-notag"}
