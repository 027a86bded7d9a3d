package predictor

import (
	"testing"

	"alloysim/internal/memaddr"
)

// Predict and Update run on every L3 read miss through the Predictor
// interface; no predictor kind may allocate there.
func TestPredictUpdateZeroAllocs(t *testing.T) {
	contains := func(l memaddr.Line) bool { return l&1 == 0 }
	preds := []Predictor{SAM{}, PAM{}, NewMAPG(4), NewMAPI(4), Perfect{Contains: contains}, MissMap{Contains: contains}}
	for _, p := range preds {
		var pc uint64
		step := func() {
			pc = pc*6364136223846793005 + 1442695040888963407
			core, line := int(pc>>60)&3, memaddr.Line(pc>>20)
			hit, _ := p.Predict(core, pc, line)
			p.Update(core, pc, line, !hit)
		}
		if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
			t.Errorf("%T: Predict+Update allocated %.2f allocs/op, want 0", p, allocs)
		}
	}
}
