package experiments

import (
	"context"
	"strings"
	"testing"

	"alloysim/internal/core"
	"alloysim/internal/obs"
)

// TestPhaseExperimentDeterministic: the phase tables are a pure function
// of the parameters, byte-identical across repeated runs.
func TestPhaseExperimentDeterministic(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		if err := runPhase(context.Background(), NewRunner(tinyParams()), &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	ref := render()
	if again := render(); again != ref {
		t.Fatal("repeated phase runs rendered different bytes")
	}
	for _, want := range []string{"DC hit rate", "Pred accuracy", "Bank max/mean", "mcf_r / alloy /"} {
		if !strings.Contains(ref, want) {
			t.Fatalf("phase output missing %q:\n%s", want, ref)
		}
	}
}

// TestPhaseRowsShape: downsampling keeps at most phaseMaxRows rows, ends
// at the final epoch, and keeps epochs strictly increasing.
func TestPhaseRowsShape(t *testing.T) {
	r := NewRunner(microParams())
	pt := r.normalize(Point{Workload: "mcf_r", Design: core.DesignAlloy})
	sys, err := core.NewSystem(r.p.Config(pt))
	if err != nil {
		t.Fatal(err)
	}
	ts := obs.NewTimeSeries(0)
	sys.EnableTimeSeries(ts)
	if _, err := sys.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	rows := phaseRows(ts)
	if len(rows) == 0 || len(rows) > phaseMaxRows {
		t.Fatalf("%d rows, want 1..%d", len(rows), phaseMaxRows)
	}
	if rows[len(rows)-1].epoch != ts.Len()-1 {
		t.Fatalf("last row epoch %d, want final epoch %d", rows[len(rows)-1].epoch, ts.Len()-1)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].epoch <= rows[i-1].epoch {
			t.Fatalf("epochs not increasing: %d then %d", rows[i-1].epoch, rows[i].epoch)
		}
	}
	for _, r := range rows {
		if r.hitRate < 0 || r.hitRate > 1 || r.accuracy < 0 || r.accuracy > 1 {
			t.Fatalf("rate out of [0,1]: %+v", r)
		}
	}
}
