package energy

import (
	"strings"
	"testing"
	"testing/quick"

	"alloysim/internal/dram"
)

func TestChargeComponents(t *testing.T) {
	s := dram.Stats{Reads: 10, Writes: 5, RowMisses: 3, RowConflict: 2, BusBusy: 100}
	p := PerOp{ActivatePJ: 1000, ReadPJ: 100, WritePJ: 200, BusCyclePJ: 1}
	b := Charge(s, p)
	if b.ActivationPJ != 5000 {
		t.Fatalf("activation = %v, want 5000", b.ActivationPJ)
	}
	if b.ReadPJ != 1000 || b.WritePJ != 1000 || b.BusPJ != 100 {
		t.Fatalf("components wrong: %+v", b)
	}
	if b.TotalPJ() != 7100 {
		t.Fatalf("total = %v, want 7100", b.TotalPJ())
	}
	if b.TotalNJ() != 7.1 {
		t.Fatalf("totalNJ = %v, want 7.1", b.TotalNJ())
	}
}

func TestRowHitsCostNoActivation(t *testing.T) {
	s := dram.Stats{Reads: 10, RowHits: 10}
	b := Charge(s, DDR3())
	if b.ActivationPJ != 0 {
		t.Fatal("row hits charged activations")
	}
	if b.ReadPJ == 0 {
		t.Fatal("reads not charged")
	}
}

func TestStackedIOCheaperThanOffChip(t *testing.T) {
	if Stacked().BusCyclePJ >= DDR3().BusCyclePJ {
		t.Fatal("stacked I/O should be cheaper than off-chip")
	}
}

func TestChargeSystemShares(t *testing.T) {
	sys := ChargeSystem(
		dram.Stats{Reads: 100, RowMisses: 100, BusBusy: 1600},
		dram.Stats{Reads: 100, RowMisses: 100, BusBusy: 400},
	)
	if sys.TotalNJ() <= 0 {
		t.Fatal("no energy charged")
	}
	off, stacked := sys.OffChip.TotalNJ(), sys.Stacked.TotalNJ()
	if stacked <= 0 || off <= stacked {
		t.Fatalf("off-chip %v nJ, stacked %v nJ: want off-chip above a nonzero stacked share for equal access counts", off, stacked)
	}
}

func TestDoublingReadsDoublesReadEnergy(t *testing.T) {
	f := func(reads uint16) bool {
		a := Charge(dram.Stats{Reads: uint64(reads)}, DDR3())
		b := Charge(dram.Stats{Reads: 2 * uint64(reads)}, DDR3())
		return b.ReadPJ == 2*a.ReadPJ
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownString(t *testing.T) {
	b := Charge(dram.Stats{Reads: 1}, DDR3())
	if !strings.Contains(b.String(), "total=") {
		t.Fatalf("breakdown string malformed: %s", b.String())
	}
}
