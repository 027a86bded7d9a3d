package experiments

import (
	"context"
	"fmt"
	"io"

	"alloysim/internal/core"
	"alloysim/internal/stats"
)

func init() {
	register(Experiment{ID: "fig4", Title: "Figure 4: performance potential of SRAM-Tag, LH-Cache, IDEAL-LO", Run: runFig4})
	register(Experiment{ID: "table1", Title: "Table 1: impact of de-optimizing LH-Cache", Run: runTable1})
	register(Experiment{ID: "table3", Title: "Table 3: benchmark characteristics (measured)", Run: runTable3})
	register(Experiment{ID: "fig6", Title: "Figure 6: speedup of Alloy Cache with NoPred, MissMap, Perfect vs SRAM-Tag", Run: runFig6})
	register(Experiment{ID: "fig8", Title: "Figure 8: Alloy Cache with SAM, PAM, MAP-G, MAP-I, Perfect", Run: runFig8})
	register(Experiment{ID: "table5", Title: "Table 5: accuracy of memory access predictors", Run: runTable5})
	register(Experiment{ID: "fig9", Title: "Figure 9: sensitivity to cache size (64MB-1GB)", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "Figure 10: average hit latency per workload", Run: runFig10})
	register(Experiment{ID: "table6", Title: "Table 6: hit rate, 29-way LH vs direct-mapped Alloy", Run: runTable6})
	register(Experiment{ID: "fig11", Title: "Figure 11: performance on the other SPEC workloads", Run: runFig11})
	register(Experiment{ID: "table7", Title: "Table 7: room for improvement over Alloy+MAP-I", Run: runTable7})
	register(Experiment{ID: "sec65", Title: "Section 6.5: burst-8 vs burst-5 Alloy Cache", Run: runSec65})
	register(Experiment{ID: "sec67", Title: "Section 6.7: two-way Alloy Cache", Run: runSec67})
}

// speedupTable renders per-workload speedups for a set of designs plus the
// geometric mean row. All points are prefetched in parallel first.
func speedupTable(ctx context.Context, r *Runner, w io.Writer, workloads []string, cols []struct {
	Label string
	D     core.Design
	P     core.PredictorKind
}, cacheMB uint64) error {
	var points []Point
	for _, wl := range workloads {
		points = append(points, Point{Workload: wl, Design: core.DesignNone})
		for _, c := range cols {
			points = append(points, Point{Workload: wl, Design: c.D, Predictor: c.P, CacheMB: cacheMB})
		}
	}
	if err := r.Prefetch(ctx, points); err != nil {
		return err
	}
	header := append([]string{"Workload"}, func() []string {
		var h []string
		for _, c := range cols {
			h = append(h, c.Label)
		}
		return h
	}()...)
	tab := stats.NewTable(header...)
	sums := make([][]float64, len(cols))
	for _, wl := range workloads {
		row := []interface{}{wl}
		for i, c := range cols {
			s, err := r.Speedup(ctx, wl, c.D, c.P, cacheMB)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.3f", s))
			sums[i] = append(sums[i], s)
		}
		tab.AddRow(row...)
	}
	row := []interface{}{"GMEAN"}
	for i := range cols {
		row = append(row, fmt.Sprintf("%.3f", stats.GeoMean(sums[i])))
	}
	tab.AddRow(row...)
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runFig4(ctx context.Context, r *Runner, w io.Writer) error {
	cols := []struct {
		Label string
		D     core.Design
		P     core.PredictorKind
	}{
		{"LH-Cache", core.DesignLH, core.PredDefault},
		{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
		{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
	}
	fmt.Fprintln(w, "Speedup over no-DRAM-cache baseline, 256MB cache:")
	if err := speedupTable(ctx, r, w, DetailedWorkloads(), cols, 0); err != nil {
		return err
	}
	// Echo the figure's bars: geometric-mean speedup per design.
	var labels []string
	var vals []float64
	for _, c := range cols {
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), c.D, c.P, 0)
		if err != nil {
			return err
		}
		labels = append(labels, c.Label)
		vals = append(vals, gm)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, stats.Bars(labels, vals, 48))
	return nil
}

func runTable1(ctx context.Context, r *Runner, w io.Writer) error {
	rows := []struct {
		Label string
		D     core.Design
		P     core.PredictorKind
	}{
		{"LH-Cache", core.DesignLH, core.PredDefault},
		{"LH-Cache + Rand Repl", core.DesignLHRand, core.PredDefault},
		{"LH-Cache (1-way)", core.DesignLH1, core.PredDefault},
		{"SRAM-Tag (32-way)", core.DesignSRAMTag32, core.PredDefault},
		{"SRAM-Tag (1-way)", core.DesignSRAMTag1, core.PredDefault},
		{"Alloy (1-way)", core.DesignAlloy, core.PredDefault},
		{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
	}
	tab := stats.NewTable("Configuration", "Speedup", "Hit-Rate", "Hit Latency (cycles)")
	workloads := DetailedWorkloads()
	var points []Point
	for _, wl := range workloads {
		points = append(points, Point{Workload: wl, Design: core.DesignNone})
		for _, cfg := range rows {
			points = append(points, Point{Workload: wl, Design: cfg.D, Predictor: cfg.P})
		}
	}
	if err := r.Prefetch(ctx, points); err != nil {
		return err
	}
	for _, cfg := range rows {
		var speedups, hitRates, hitLats []float64
		for _, wl := range workloads {
			s, err := r.Speedup(ctx, wl, cfg.D, cfg.P, 0)
			if err != nil {
				return err
			}
			res, err := r.Run(ctx, wl, cfg.D, cfg.P, 0)
			if err != nil {
				return err
			}
			speedups = append(speedups, s)
			hitRates = append(hitRates, res.DCReadHitRate)
			hitLats = append(hitLats, res.HitLatency)
		}
		tab.AddRow(cfg.Label,
			fmt.Sprintf("%.1f%%", (stats.GeoMean(speedups)-1)*100),
			fmt.Sprintf("%.1f%%", stats.ArithMean(hitRates)*100),
			fmt.Sprintf("%.0f", stats.ArithMean(hitLats)))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runTable3(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Workload", "Perfect-L3 Speedup", "MPKI", "Footprint (scaled)")
	for _, wl := range DetailedWorkloads() {
		cfg := core.DefaultConfig(wl)
		cfg.Scale = r.p.Scale
		cfg.InstructionsPerCore = r.p.InstructionsPerCore / 2
		cfg.WarmupRefs = r.p.WarmupRefs / 4
		cfg.Cores = r.p.Cores
		cfg.GapScale = r.p.GapScale
		cfg.Design = core.DesignNone
		cfg.TrackFootprint = true
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return err
		}
		base, err := sys.RunContext(ctx)
		if err != nil {
			return err
		}
		// Perfect L3: all reads hit the L3 (latency 24, fully overlapped
		// at base IPC); approximate by instructions / (IPC * cores).
		perfectCycles := float64(base.Instructions) / (4 * float64(r.p.Cores))
		tab.AddRow(wl,
			fmt.Sprintf("%.1fx", base.ExecCycles/perfectCycles),
			fmt.Sprintf("%.1f", base.MPKI),
			fmt.Sprintf("%.0f MB", float64(base.FootprintBytes)/(1<<20)))
	}
	_, err := fmt.Fprint(w, tab.String())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nFootprints are at 1/%d capacity scale; multiply by %d for paper scale.\n", r.p.Scale, r.p.Scale)
	return nil
}

func runFig6(ctx context.Context, r *Runner, w io.Writer) error {
	cols := []struct {
		Label string
		D     core.Design
		P     core.PredictorKind
	}{
		{"Alloy+NoPred(SAM)", core.DesignAlloy, core.PredSAM},
		{"Alloy+MissMap", core.DesignAlloy, core.PredMissMap},
		{"Alloy+Perfect", core.DesignAlloy, core.PredPerfect},
		{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
	}
	fmt.Fprintln(w, "Speedup over baseline, 256MB cache:")
	return speedupTable(ctx, r, w, DetailedWorkloads(), cols, 0)
}

func runFig8(ctx context.Context, r *Runner, w io.Writer) error {
	cols := []struct {
		Label string
		D     core.Design
		P     core.PredictorKind
	}{
		{"SAM", core.DesignAlloy, core.PredSAM},
		{"PAM", core.DesignAlloy, core.PredPAM},
		{"MAP-G", core.DesignAlloy, core.PredMAPG},
		{"MAP-I", core.DesignAlloy, core.PredMAPI},
		{"Perfect", core.DesignAlloy, core.PredPerfect},
	}
	fmt.Fprintln(w, "Alloy Cache speedup over baseline for each memory access predictor:")
	return speedupTable(ctx, r, w, DetailedWorkloads(), cols, 0)
}

func runTable5(ctx context.Context, r *Runner, w io.Writer) error {
	preds := []struct {
		Label string
		P     core.PredictorKind
	}{
		{"SAM", core.PredSAM},
		{"PAM", core.PredPAM},
		{"MAP-G", core.PredMAPG},
		{"MAP-I", core.PredMAPI},
		{"Perfect", core.PredPerfect},
	}
	tab := stats.NewTable("Prediction", "Mem&PredMem", "Mem&PredCache", "Cache&PredMem", "Cache&PredCache", "Overall Accuracy")
	for _, p := range preds {
		var a [4]float64
		var overall []float64
		for _, wl := range DetailedWorkloads() {
			res, err := r.Run(ctx, wl, core.DesignAlloy, p.P, 0)
			if err != nil {
				return err
			}
			acc := res.Accuracy
			a[0] += acc.Fraction(acc.MemPredMem)
			a[1] += acc.Fraction(acc.MemPredCache)
			a[2] += acc.Fraction(acc.CachePredMem)
			a[3] += acc.Fraction(acc.CachePredCache)
			overall = append(overall, acc.Overall())
		}
		n := float64(len(DetailedWorkloads()))
		tab.AddRow(p.Label,
			fmt.Sprintf("%.1f%%", a[0]/n*100),
			fmt.Sprintf("%.1f%%", a[1]/n*100),
			fmt.Sprintf("%.1f%%", a[2]/n*100),
			fmt.Sprintf("%.1f%%", a[3]/n*100),
			fmt.Sprintf("%.1f%%", stats.ArithMean(overall)*100))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runFig9(ctx context.Context, r *Runner, w io.Writer) error {
	sizes := []uint64{64, 128, 256, 512, 1024}
	{
		var points []Point
		for _, wl := range DetailedWorkloads() {
			points = append(points, Point{Workload: wl, Design: core.DesignNone})
			for _, mb := range sizes {
				for _, d := range []core.Design{core.DesignLH, core.DesignSRAMTag32, core.DesignAlloy, core.DesignIdealLO} {
					points = append(points, Point{Workload: wl, Design: d, CacheMB: mb})
				}
			}
		}
		if err := r.Prefetch(ctx, points); err != nil {
			return err
		}
	}
	designs := []struct {
		Label string
		D     core.Design
		P     core.PredictorKind
	}{
		{"LH-Cache", core.DesignLH, core.PredDefault},
		{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
		{"Alloy-Cache", core.DesignAlloy, core.PredDefault},
		{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
	}
	tab := stats.NewTable("Size", "LH-Cache", "SRAM-Tag", "Alloy-Cache", "IDEAL-LO")
	for _, mb := range sizes {
		row := []interface{}{fmt.Sprintf("%dMB", mb)}
		for _, d := range designs {
			_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), d.D, d.P, mb)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.3f", gm))
		}
		tab.AddRow(row...)
	}
	fmt.Fprintln(w, "Geometric-mean speedup over baseline across the 10 detailed workloads:")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runFig10(ctx context.Context, r *Runner, w io.Writer) error {
	designs := []struct {
		Label string
		D     core.Design
		P     core.PredictorKind
	}{
		{"LH-Cache", core.DesignLH, core.PredDefault},
		{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
		{"Alloy Cache", core.DesignAlloy, core.PredDefault},
	}
	tab := stats.NewTable("Workload", "LH-Cache", "SRAM-Tag", "Alloy Cache", "Alloy p95")
	means := make([][]float64, len(designs))
	for _, wl := range DetailedWorkloads() {
		row := []interface{}{wl}
		var alloyP95 float64
		for i, d := range designs {
			res, err := r.Run(ctx, wl, d.D, d.P, 0)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.0f", res.HitLatency))
			means[i] = append(means[i], res.HitLatency)
			if d.D == core.DesignAlloy {
				alloyP95 = res.HitLatencyP95
			}
		}
		row = append(row, fmt.Sprintf("%.0f", alloyP95))
		tab.AddRow(row...)
	}
	row := []interface{}{"AMEAN"}
	for i := range designs {
		row = append(row, fmt.Sprintf("%.0f", stats.ArithMean(means[i])))
	}
	row = append(row, "")
	tab.AddRow(row...)
	fmt.Fprintln(w, "Average DRAM-cache hit latency in cycles (includes predictor serialization):")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runTable6(ctx context.Context, r *Runner, w io.Writer) error {
	var points []Point
	for _, mb := range []uint64{256, 512, 1024} {
		for _, wl := range DetailedWorkloads() {
			points = append(points, Point{Workload: wl, Design: core.DesignLH, CacheMB: mb})
			points = append(points, Point{Workload: wl, Design: core.DesignAlloy, CacheMB: mb})
		}
	}
	if err := r.Prefetch(ctx, points); err != nil {
		return err
	}
	tab := stats.NewTable("Cache Size", "LH-Cache (29-way)", "Alloy-Cache (1-way)", "Delta Hit Rate")
	for _, mb := range []uint64{256, 512, 1024} {
		var lhRates, alRates []float64
		for _, wl := range DetailedWorkloads() {
			lh, err := r.Run(ctx, wl, core.DesignLH, core.PredDefault, mb)
			if err != nil {
				return err
			}
			al, err := r.Run(ctx, wl, core.DesignAlloy, core.PredDefault, mb)
			if err != nil {
				return err
			}
			lhRates = append(lhRates, lh.DCReadHitRate)
			alRates = append(alRates, al.DCReadHitRate)
		}
		lhm, alm := stats.ArithMean(lhRates), stats.ArithMean(alRates)
		tab.AddRow(fmt.Sprintf("%d MB", mb),
			fmt.Sprintf("%.1f%%", lhm*100),
			fmt.Sprintf("%.1f%%", alm*100),
			fmt.Sprintf("%.1f%%", (lhm-alm)*100))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runFig11(ctx context.Context, r *Runner, w io.Writer) error {
	cols := []struct {
		Label string
		D     core.Design
		P     core.PredictorKind
	}{
		{"LH-Cache", core.DesignLH, core.PredDefault},
		{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
		{"Alloy", core.DesignAlloy, core.PredDefault},
	}
	fmt.Fprintln(w, "Speedup over baseline for the remaining SPEC workloads (>=1% memory time):")
	return speedupTable(ctx, r, w, OtherWorkloads(), cols, 0)
}

func runTable7(ctx context.Context, r *Runner, w io.Writer) error {
	rows := []struct {
		Label string
		D     core.Design
		P     core.PredictorKind
	}{
		{"Alloy Cache + MAP-I", core.DesignAlloy, core.PredMAPI},
		{"Alloy Cache + PerfPred", core.DesignAlloy, core.PredPerfect},
		{"IDEAL-LO", core.DesignIdealLO, core.PredPerfect},
		{"IDEAL-LO + NoTagOverhead", core.DesignIdealLONoTag, core.PredPerfect},
	}
	tab := stats.NewTable("Design", "Performance Improvement")
	for _, cfg := range rows {
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), cfg.D, cfg.P, 0)
		if err != nil {
			return err
		}
		tab.AddRow(cfg.Label, fmt.Sprintf("%.1f%%", (gm-1)*100))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runSec65(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Configuration", "GMean Speedup")
	for _, cfg := range []struct {
		Label string
		D     core.Design
	}{
		{"Alloy (burst of 5, 80B)", core.DesignAlloy},
		{"Alloy (burst of 8, 128B)", core.DesignAlloyBurst8},
	} {
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), cfg.D, core.PredMAPI, 0)
		if err != nil {
			return err
		}
		tab.AddRow(cfg.Label, fmt.Sprintf("%.3f", gm))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runSec67(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Configuration", "GMean Speedup", "Hit-Rate", "Hit Latency")
	for _, cfg := range []struct {
		Label string
		D     core.Design
	}{
		{"Alloy (1-way)", core.DesignAlloy},
		{"Alloy (2-way)", core.DesignAlloy2},
	} {
		var hitRates, hitLats []float64
		for _, wl := range DetailedWorkloads() {
			res, err := r.Run(ctx, wl, cfg.D, core.PredMAPI, 0)
			if err != nil {
				return err
			}
			hitRates = append(hitRates, res.DCReadHitRate)
			hitLats = append(hitLats, res.HitLatency)
		}
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), cfg.D, core.PredMAPI, 0)
		if err != nil {
			return err
		}
		tab.AddRow(cfg.Label, fmt.Sprintf("%.3f", gm),
			fmt.Sprintf("%.1f%%", stats.ArithMean(hitRates)*100),
			fmt.Sprintf("%.0f", stats.ArithMean(hitLats)))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}
