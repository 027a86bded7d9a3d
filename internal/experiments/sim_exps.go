package experiments

import (
	"context"
	"fmt"
	"io"

	"alloysim/internal/core"
	"alloysim/internal/stats"
)

func init() {
	register(Experiment{ID: "fig4", Title: "Figure 4: performance potential of SRAM-Tag, LH-Cache, IDEAL-LO",
		Points: speedupPoints(DetailedWorkloads, fig4Cols), Render: runFig4})
	register(Experiment{ID: "table1", Title: "Table 1: impact of de-optimizing LH-Cache",
		Points: speedupPoints(DetailedWorkloads, table1Rows), Render: runTable1})
	register(Experiment{ID: "table3", Title: "Table 3: benchmark characteristics (measured)", Render: runTable3})
	register(Experiment{ID: "fig6", Title: "Figure 6: speedup of Alloy Cache with NoPred, MissMap, Perfect vs SRAM-Tag",
		Points: speedupPoints(DetailedWorkloads, fig6Cols), Render: runFig6})
	register(Experiment{ID: "fig8", Title: "Figure 8: Alloy Cache with SAM, PAM, MAP-G, MAP-I, Perfect",
		Points: speedupPoints(DetailedWorkloads, fig8Cols), Render: runFig8})
	register(Experiment{ID: "table5", Title: "Table 5: accuracy of memory access predictors",
		Points: cellPoints(DetailedWorkloads, fig8Cols), Render: runTable5})
	register(Experiment{ID: "fig9", Title: "Figure 9: sensitivity to cache size (64MB-1GB)",
		Points: speedupPoints(DetailedWorkloads, fig9Designs, fig9Sizes...), Render: runFig9})
	register(Experiment{ID: "fig10", Title: "Figure 10: average hit latency per workload",
		Points: cellPoints(DetailedWorkloads, fig10Designs), Render: runFig10})
	register(Experiment{ID: "table6", Title: "Table 6: hit rate, 29-way LH vs direct-mapped Alloy",
		Points: cellPoints(DetailedWorkloads, table6Designs, table6Sizes...), Render: runTable6})
	register(Experiment{ID: "fig11", Title: "Figure 11: performance on the other SPEC workloads",
		Points: speedupPoints(OtherWorkloads, fig11Cols), Render: runFig11})
	register(Experiment{ID: "table7", Title: "Table 7: room for improvement over Alloy+MAP-I",
		Points: speedupPoints(DetailedWorkloads, table7Rows), Render: runTable7})
	register(Experiment{ID: "sec65", Title: "Section 6.5: burst-8 vs burst-5 Alloy Cache",
		Points: speedupPoints(DetailedWorkloads, sec65Rows), Render: runSec65})
	register(Experiment{ID: "sec67", Title: "Section 6.7: two-way Alloy Cache",
		Points: speedupPoints(DetailedWorkloads, sec67Rows), Render: runSec67})
}

// column is one labelled design of a table, run on each workload.
type column struct {
	Label string
	D     core.Design
	P     core.PredictorKind
}

// cellPoints lists the points of every column on every workload at each
// size (the default size when none is given), workload-major.
func cellPoints(workloads func() []string, cols []column, sizes ...uint64) func() []Point {
	if len(sizes) == 0 {
		sizes = []uint64{0}
	}
	return func() []Point {
		var pts []Point
		for _, wl := range workloads() {
			for _, mb := range sizes {
				for _, c := range cols {
					pts = append(pts, Point{Workload: wl, Design: c.D, Predictor: c.P, CacheMB: mb})
				}
			}
		}
		return pts
	}
}

// speedupPoints is cellPoints with each workload's no-cache baseline
// first: the points a speedup over that baseline reads. The baseline is
// listed again at each further size, a spelling Prefetch drops.
func speedupPoints(workloads func() []string, cols []column, sizes ...uint64) func() []Point {
	return cellPoints(workloads, append([]column{{D: core.DesignNone}}, cols...), sizes...)
}

// speedupTable renders per-workload speedups for a set of designs plus the
// geometric mean row.
func speedupTable(ctx context.Context, r *Runner, w io.Writer, workloads []string, cols []column) error {
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
			s, err := r.Speedup(ctx, Point{Workload: wl, Design: c.D, Predictor: c.P})
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

var fig4Cols = []column{
	{"LH-Cache", core.DesignLH, core.PredDefault},
	{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
	{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
}

func runFig4(ctx context.Context, r *Runner, w io.Writer) error {
	fmt.Fprintln(w, "Speedup over no-DRAM-cache baseline, 256MB cache:")
	if err := speedupTable(ctx, r, w, DetailedWorkloads(), fig4Cols); err != nil {
		return err
	}
	// Echo the figure's bars: geometric-mean speedup per design.
	var labels []string
	var vals []float64
	for _, c := range fig4Cols {
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), Point{Design: c.D, Predictor: c.P})
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

var table1Rows = []column{
	{"LH-Cache", core.DesignLH, core.PredDefault},
	{"LH-Cache + Rand Repl", core.DesignLHRand, core.PredDefault},
	{"LH-Cache (1-way)", core.DesignLH1, core.PredDefault},
	{"SRAM-Tag (32-way)", core.DesignSRAMTag32, core.PredDefault},
	{"SRAM-Tag (1-way)", core.DesignSRAMTag1, core.PredDefault},
	{"Alloy (1-way)", core.DesignAlloy, core.PredDefault},
	{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
}

func runTable1(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Configuration", "Speedup", "Hit-Rate", "Hit Latency (cycles)")
	workloads := DetailedWorkloads()
	for _, cfg := range table1Rows {
		var speedups, hitRates, hitLats []float64
		for _, wl := range workloads {
			s, err := r.Speedup(ctx, Point{Workload: wl, Design: cfg.D, Predictor: cfg.P})
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
		cfg := r.p.Config(Point{Workload: wl, Design: core.DesignNone})
		cfg.InstructionsPerCore /= 2
		cfg.WarmupRefs /= 4
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

var fig6Cols = []column{
	{"Alloy+NoPred(SAM)", core.DesignAlloy, core.PredSAM},
	{"Alloy+MissMap", core.DesignAlloy, core.PredMissMap},
	{"Alloy+Perfect", core.DesignAlloy, core.PredPerfect},
	{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
}

func runFig6(ctx context.Context, r *Runner, w io.Writer) error {
	fmt.Fprintln(w, "Speedup over baseline, 256MB cache:")
	return speedupTable(ctx, r, w, DetailedWorkloads(), fig6Cols)
}

// fig8Cols are Alloy under each memory access predictor: Figure 8's
// columns and Table 5's rows.
var fig8Cols = []column{
	{"SAM", core.DesignAlloy, core.PredSAM},
	{"PAM", core.DesignAlloy, core.PredPAM},
	{"MAP-G", core.DesignAlloy, core.PredMAPG},
	{"MAP-I", core.DesignAlloy, core.PredMAPI},
	{"Perfect", core.DesignAlloy, core.PredPerfect},
}

func runFig8(ctx context.Context, r *Runner, w io.Writer) error {
	fmt.Fprintln(w, "Alloy Cache speedup over baseline for each memory access predictor:")
	return speedupTable(ctx, r, w, DetailedWorkloads(), fig8Cols)
}

func runTable5(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Prediction", "Mem&PredMem", "Mem&PredCache", "Cache&PredMem", "Cache&PredCache", "Overall Accuracy")
	for _, p := range fig8Cols {
		var a [4]float64
		var overall []float64
		for _, wl := range DetailedWorkloads() {
			res, err := r.Run(ctx, wl, p.D, p.P, 0)
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

var (
	fig9Sizes   = []uint64{64, 128, 256, 512, 1024}
	fig9Designs = []column{
		{"LH-Cache", core.DesignLH, core.PredDefault},
		{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
		{"Alloy-Cache", core.DesignAlloy, core.PredDefault},
		{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
	}
)

func runFig9(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Size", "LH-Cache", "SRAM-Tag", "Alloy-Cache", "IDEAL-LO")
	for _, mb := range fig9Sizes {
		row := []interface{}{fmt.Sprintf("%dMB", mb)}
		for _, d := range fig9Designs {
			_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), Point{Design: d.D, Predictor: d.P, CacheMB: mb})
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

var fig10Designs = []column{
	{"LH-Cache", core.DesignLH, core.PredDefault},
	{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
	{"Alloy Cache", core.DesignAlloy, core.PredDefault},
}

func runFig10(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Workload", "LH-Cache", "SRAM-Tag", "Alloy Cache", "Alloy p95")
	means := make([][]float64, len(fig10Designs))
	for _, wl := range DetailedWorkloads() {
		row := []interface{}{wl}
		var alloyP95 float64
		for i, d := range fig10Designs {
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
	for i := range fig10Designs {
		row = append(row, fmt.Sprintf("%.0f", stats.ArithMean(means[i])))
	}
	row = append(row, "")
	tab.AddRow(row...)
	fmt.Fprintln(w, "Average DRAM-cache hit latency in cycles (includes predictor serialization):")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

var (
	table6Sizes   = []uint64{256, 512, 1024}
	table6Designs = []column{
		{"LH-Cache (29-way)", core.DesignLH, core.PredDefault},
		{"Alloy-Cache (1-way)", core.DesignAlloy, core.PredDefault},
	}
)

func runTable6(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Cache Size", "LH-Cache (29-way)", "Alloy-Cache (1-way)", "Delta Hit Rate")
	for _, mb := range table6Sizes {
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

var fig11Cols = []column{
	{"LH-Cache", core.DesignLH, core.PredDefault},
	{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
	{"Alloy", core.DesignAlloy, core.PredDefault},
}

func runFig11(ctx context.Context, r *Runner, w io.Writer) error {
	fmt.Fprintln(w, "Speedup over baseline for the remaining SPEC workloads (>=1% memory time):")
	return speedupTable(ctx, r, w, OtherWorkloads(), fig11Cols)
}

var table7Rows = []column{
	{"Alloy Cache + MAP-I", core.DesignAlloy, core.PredMAPI},
	{"Alloy Cache + PerfPred", core.DesignAlloy, core.PredPerfect},
	{"IDEAL-LO", core.DesignIdealLO, core.PredPerfect},
	{"IDEAL-LO + NoTagOverhead", core.DesignIdealLONoTag, core.PredPerfect},
}

func runTable7(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Design", "Performance Improvement")
	for _, cfg := range table7Rows {
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), Point{Design: cfg.D, Predictor: cfg.P})
		if err != nil {
			return err
		}
		tab.AddRow(cfg.Label, fmt.Sprintf("%.1f%%", (gm-1)*100))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}

var sec65Rows = []column{
	{"Alloy (burst of 5, 80B)", core.DesignAlloy, core.PredMAPI},
	{"Alloy (burst of 8, 128B)", core.DesignAlloyBurst8, core.PredMAPI},
}

func runSec65(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Configuration", "GMean Speedup")
	for _, cfg := range sec65Rows {
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), Point{Design: cfg.D, Predictor: cfg.P})
		if err != nil {
			return err
		}
		tab.AddRow(cfg.Label, fmt.Sprintf("%.3f", gm))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}

var sec67Rows = []column{
	{"Alloy (1-way)", core.DesignAlloy, core.PredMAPI},
	{"Alloy (2-way)", core.DesignAlloy2, core.PredMAPI},
}

func runSec67(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Configuration", "GMean Speedup", "Hit-Rate", "Hit Latency")
	for _, cfg := range sec67Rows {
		var hitRates, hitLats []float64
		for _, wl := range DetailedWorkloads() {
			res, err := r.Run(ctx, wl, cfg.D, cfg.P, 0)
			if err != nil {
				return err
			}
			hitRates = append(hitRates, res.DCReadHitRate)
			hitLats = append(hitLats, res.HitLatency)
		}
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), Point{Design: cfg.D, Predictor: cfg.P})
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
