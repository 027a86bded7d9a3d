package main

// Integration tests that exercise full-system behavior across module
// boundaries: conservation properties (every read issued is completed),
// cross-design invariants, and the end-to-end determinism guarantee the
// whole repository depends on.

import (
	"testing"

	"alloysim/internal/core"
)

func tinyCfg(workload string, d core.Design) core.Config {
	cfg := core.DefaultConfig(workload)
	cfg.Design = d
	cfg.InstructionsPerCore = 120_000
	cfg.WarmupRefs = 5_000
	cfg.GapScale = 2
	return cfg
}

func runCfg(t *testing.T, cfg core.Config) core.Result {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEveryDesignEveryPredictorCombination sweeps the full configuration
// cross-product at tiny scale: nothing may error, hang, or produce a
// degenerate result.
func TestEveryDesignEveryPredictorCombination(t *testing.T) {
	preds := []core.PredictorKind{
		core.PredDefault, core.PredSAM, core.PredPAM,
		core.PredMAPG, core.PredMAPI, core.PredPerfect, core.PredMissMap,
	}
	for _, d := range core.Designs() {
		for _, p := range preds {
			if d == core.DesignNone && p != core.PredDefault {
				continue // baseline has no predictor
			}
			cfg := tinyCfg("sphinx_r", d)
			cfg.InstructionsPerCore = 30_000
			cfg.WarmupRefs = 1_000
			cfg.Predictor = p
			r := runCfg(t, cfg)
			if r.ExecCycles <= 0 {
				t.Errorf("%s/%s: no execution time", d, p)
			}
			if r.IPC() <= 0 || r.IPC() > 32 {
				t.Errorf("%s/%s: implausible IPC %.2f", d, p, r.IPC())
			}
		}
	}
}

// TestInstructionConservation verifies each run retires at least its
// budget on every core and never more than one reference's overshoot.
func TestInstructionConservation(t *testing.T) {
	cfg := tinyCfg("mcf_r", core.DesignAlloy)
	r := runCfg(t, cfg)
	minInstr := cfg.InstructionsPerCore * uint64(cfg.Cores)
	if r.Instructions < minInstr {
		t.Fatalf("retired %d < budget %d", r.Instructions, minInstr)
	}
	// Generous slack: one max-gap reference per core.
	if r.Instructions > minInstr+uint64(cfg.Cores)*10_000 {
		t.Fatalf("retired %d overshoots budget %d", r.Instructions, minInstr)
	}
}

// TestMemoryTrafficConsistency: a design's off-chip reads can never
// exceed the baseline's (caching only removes or duplicates-by-prediction
// reads, and wasted probes are bounded by prediction counts).
func TestMemoryTrafficConsistency(t *testing.T) {
	base := runCfg(t, tinyCfg("omnetpp_r", core.DesignNone))
	alloy := runCfg(t, tinyCfg("omnetpp_r", core.DesignAlloy))
	if alloy.MemReads > base.MemReads+alloy.WastedMemReads {
		t.Fatalf("alloy mem reads %d exceed baseline %d + wasted %d",
			alloy.MemReads, base.MemReads, alloy.WastedMemReads)
	}
	if alloy.MemReads >= base.MemReads {
		t.Fatalf("caching did not reduce memory reads: %d vs %d", alloy.MemReads, base.MemReads)
	}
}

// TestPerfectPredictorDominatesAll: with identical contents behavior, the
// zero-latency oracle must not lose to any real predictor.
func TestPerfectPredictorDominatesAll(t *testing.T) {
	perfCfg := tinyCfg("gcc_r", core.DesignAlloy)
	perfCfg.Predictor = core.PredPerfect
	perfect := runCfg(t, perfCfg)
	for _, p := range []core.PredictorKind{core.PredSAM, core.PredPAM, core.PredMAPG, core.PredMAPI} {
		cfg := tinyCfg("gcc_r", core.DesignAlloy)
		cfg.Predictor = p
		r := runCfg(t, cfg)
		// Allow 2% tolerance: mispredictions can accidentally prefetch
		// row-buffer state (the paper's libquantum MAP-G anecdote).
		if r.ExecCycles < perfect.ExecCycles*0.98 {
			t.Errorf("%s (%.0f) beat the perfect predictor (%.0f) by >2%%",
				p, r.ExecCycles, perfect.ExecCycles)
		}
	}
}

// TestScaleInvarianceOfOrdering: the Alloy-beats-LH result must hold at
// two different capacity scales (it is a ratio property, not a scale
// artifact).
func TestScaleInvarianceOfOrdering(t *testing.T) {
	for _, scale := range []uint64{64, 128} {
		mk := func(d core.Design) core.Result {
			cfg := tinyCfg("omnetpp_r", d)
			cfg.Scale = scale
			return runCfg(t, cfg)
		}
		base := mk(core.DesignNone)
		lh := mk(core.DesignLH)
		alloy := mk(core.DesignAlloy)
		if alloy.SpeedupOver(base) <= lh.SpeedupOver(base) {
			t.Errorf("scale %d: Alloy (%.3f) did not beat LH (%.3f)",
				scale, alloy.SpeedupOver(base), lh.SpeedupOver(base))
		}
	}
}

// TestRefreshOverheadIsBounded: enabling DDR3-class refresh must cost
// something but not more than a few percent.
func TestRefreshOverheadIsBounded(t *testing.T) {
	cfg := tinyCfg("mcf_r", core.DesignAlloy)
	off := runCfg(t, cfg)

	cfg.OffChip.TREFI, cfg.OffChip.TRFC = 24960, 512
	cfg.Stacked.TREFI, cfg.Stacked.TRFC = 24960, 512
	on := runCfg(t, cfg)

	slowdown := on.ExecCycles / off.ExecCycles
	if slowdown < 1.0 {
		t.Fatalf("refresh sped the system up (%.3fx)", slowdown)
	}
	if slowdown > 1.15 {
		t.Fatalf("refresh slowdown %.3fx exceeds 15%%", slowdown)
	}
}
