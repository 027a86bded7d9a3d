// Package alloysim's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation, each regenerating its artifact through
// the experiment registry (internal/experiments). Run all of them with
//
//	go test -bench=. -benchmem
//
// Benchmarks use reduced trace lengths so a full sweep stays fast; the
// committed EXPERIMENTS.md numbers come from `go run ./cmd/paperfigs` at
// the default scale. Every benchmark reports the paper artifact it
// regenerates via b.ReportMetric side channels where meaningful.
package main

import (
	"context"
	"io"
	"testing"

	"alloysim/internal/core"
	"alloysim/internal/experiments"
)

// benchParams are deliberately small: each iteration re-simulates the
// whole experiment.
func benchParams() experiments.Params {
	p := experiments.QuickParams()
	p.InstructionsPerCore = 100_000
	p.WarmupRefs = 5_000
	return p
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	p := benchParams()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(p)
		if err := e.Run(context.Background(), r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1 regenerates Figure 1 (break-even hit-rate curves).
func BenchmarkFig1(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig3 regenerates Figure 3 (isolated-access latency breakdown).
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4 (SRAM-Tag / LH-Cache / IDEAL-LO
// performance potential across the ten detailed workloads).
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkTable1 regenerates Table 1 (de-optimizing the LH-Cache).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable3 regenerates Table 3 (workload characteristics).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4 regenerates Table 4 (effective bandwidth accounting).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig6 regenerates Figure 6 (Alloy + NoPred/MissMap/Perfect vs
// SRAM-Tag).
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig8 regenerates Figure 8 (SAM/PAM/MAP-G/MAP-I/Perfect).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable5 regenerates Table 5 (predictor accuracy scenarios).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig9 regenerates Figure 9 (cache-size sensitivity, 64MB-1GB).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10 (average hit latency per workload).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable6 regenerates Table 6 (29-way vs direct-mapped hit rate).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFig11 regenerates Figure 11 (the fourteen other workloads).
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkTable7 regenerates Table 7 (room for improvement ladder).
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkSec65 regenerates the §6.5 burst-length ablation.
func BenchmarkSec65(b *testing.B) { benchExperiment(b, "sec65") }

// BenchmarkSec67 regenerates the §6.7 two-way Alloy ablation.
func BenchmarkSec67(b *testing.B) { benchExperiment(b, "sec67") }

// BenchmarkSimulationThroughput measures raw simulator speed: simulated
// instructions per second on one Alloy Cache configuration. This is the
// number to watch when optimizing the engine itself.
func BenchmarkSimulationThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig("mcf_r")
		cfg.Design = core.DesignAlloy
		cfg.InstructionsPerCore = 100_000
		cfg.WarmupRefs = 2_000
		cfg.GapScale = 2
		sys, err := core.NewSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Instructions), "instrs/op")
	}
}

// BenchmarkSec27 regenerates the §2.7 row-buffer locality measurement.
func BenchmarkSec27(b *testing.B) { benchExperiment(b, "sec27") }

// BenchmarkSec56 regenerates the §5.6 memory-energy comparison.
func BenchmarkSec56(b *testing.B) { benchExperiment(b, "sec56") }

// BenchmarkAblMLP runs the MLP-window ablation.
func BenchmarkAblMLP(b *testing.B) { benchExperiment(b, "abl-mlp") }

// BenchmarkAblWriteBuffer runs the write-buffer-depth ablation.
func BenchmarkAblWriteBuffer(b *testing.B) { benchExperiment(b, "abl-wbuf") }

// BenchmarkAblChannels runs the stacked-channel-count ablation.
func BenchmarkAblChannels(b *testing.B) { benchExperiment(b, "abl-chan") }

// BenchmarkAblL3Policy runs the L3 replacement-policy ablation.
func BenchmarkAblL3Policy(b *testing.B) { benchExperiment(b, "abl-l3pol") }

// BenchmarkAblSeeds runs the seed-robustness replication.
func BenchmarkAblSeeds(b *testing.B) { benchExperiment(b, "abl-seeds") }

// BenchmarkTable4Sim runs the empirical Table 4 validation.
func BenchmarkTable4Sim(b *testing.B) { benchExperiment(b, "table4sim") }
