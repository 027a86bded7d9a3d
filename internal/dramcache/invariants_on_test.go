//go:build invariants

package dramcache

// Tests that the Alloy TAD co-residency invariant fires under -tags
// invariants: a set's tag and data live in one TAD, so every DRAM access
// must target the row the paper's 28-TADs-per-row geometry assigns to the
// set.

import (
	"strings"
	"testing"

	"alloysim/internal/dram"
	"alloysim/internal/memaddr"
)

func mustPanicInv(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want invariant violation containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v, want message containing %q", r, substr)
		}
	}()
	f()
}

func TestAlloyTADCoResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	a, err := build[*Alloy]("alloy", 1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the geometry: rowOf now disagrees with the 28-TAD layout
	// checkTAD recomputes independently, so any access past row 0 panics.
	a.setsPerRow = 7
	mustPanicInv(t, "co-residency", func() { access(a, 0, memaddr.Line(100), false) })
}

func TestAlloyFillCoResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	a, err := build[*Alloy]("alloy", 1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	a.setsPerRow = 7
	mustPanicInv(t, "co-residency", func() { a.Fill(0, memaddr.Line(100)) })
}

func TestAlloyLegalAccessDoesNotPanic(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	a, err := build[*Alloy]("alloy", 1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	now := Cycle(0)
	for i := 0; i < 128; i++ {
		r := access(a, now, memaddr.Line(i*37), i%4 == 0)
		now = r.TagKnown
	}
}

func TestTDRAMCoResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	td, err := build[*TDRAM]("tdram", 1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the geometry as in the Alloy tests: rowOf now disagrees with
	// the 28-lines-per-row layout checkRow recomputes independently.
	td.setsPerRow = 7
	mustPanicInv(t, "co-residency", func() { access(td, 0, memaddr.Line(100), false) })
}

func TestTDRAMFillCoResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	td, err := build[*TDRAM]("tdram", 1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	td.setsPerRow = 7
	mustPanicInv(t, "co-residency", func() { td.Fill(0, memaddr.Line(100)) })
}

func TestGeminiDualResidencyPanics(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	g, err := build[*Gemini]("gemini", 1<<20, d)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt contents: the same line resident in both regions breaks the
	// exclusive-placement invariant every access asserts.
	g.dm.Fill(memaddr.Line(9), false)
	g.sa.Fill(memaddr.Line(9), false)
	mustPanicInv(t, "both regions", func() { access(g, 0, memaddr.Line(9), false) })
}

func TestZooLegalAccessDoesNotPanic(t *testing.T) {
	d := dram.MustNew(dram.StackedConfig())
	for _, n := range []string{"banshee", "gemini", "tdram"} {
		o, err := build[Organization](n, 1<<20, d)
		if err != nil {
			t.Fatal(err)
		}
		now := Cycle(0)
		for i := 0; i < 128; i++ {
			r := access(o, now, memaddr.Line(i*37), i%4 == 0)
			now = r.TagKnown
			if r.Allocated {
				o.Fill(now, memaddr.Line(i*37))
			}
		}
	}
}
