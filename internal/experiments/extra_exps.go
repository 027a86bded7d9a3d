package experiments

import (
	"context"
	"fmt"
	"io"

	"alloysim/internal/core"
	"alloysim/internal/energy"
	"alloysim/internal/stats"
)

// This file registers the evaluation points the paper makes in prose
// rather than in a numbered table or figure (§2.7's row-buffer locality
// measurement and §5.6's memory-energy implications), plus the ablation
// studies DESIGN.md calls out for this reproduction's own modeling
// choices (MLP window, write-buffer depth, stacked channel count).

func init() {
	register(Experiment{ID: "sec27", Title: "Section 2.7: DRAM-cache row-buffer hit rate, direct-mapped vs set-per-row", Run: runSec27})
	register(Experiment{ID: "sec56", Title: "Section 5.6: memory energy implications of SAM/PAM/MAP-I", Run: runSec56})
	register(Experiment{ID: "abl-mlp", Title: "Ablation: core memory-level parallelism window", Run: runAblMLP})
	register(Experiment{ID: "abl-wbuf", Title: "Ablation: memory-controller write-buffer depth", Run: runAblWbuf})
	register(Experiment{ID: "abl-chan", Title: "Ablation: stacked-DRAM channel count", Run: runAblChan})
	register(Experiment{ID: "abl-l3pol", Title: "Ablation: L3 replacement policy", Run: runAblL3Pol})
	register(Experiment{ID: "abl-seeds", Title: "Ablation: seed robustness of the headline comparison", Run: runAblSeeds})
}

func runSec27(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Workload", "Alloy (28 sets/row)", "LH-Cache (set-per-row)")
	var alloyRates, lhRates []float64
	for _, wl := range DetailedWorkloads() {
		al, err := r.Run(ctx, wl, core.DesignAlloy, core.PredDefault, 0)
		if err != nil {
			return err
		}
		lh, err := r.Run(ctx, wl, core.DesignLH, core.PredDefault, 0)
		if err != nil {
			return err
		}
		tab.AddRow(wl,
			fmt.Sprintf("%.1f%%", al.RowBufferHitRate*100),
			fmt.Sprintf("%.2f%%", lh.RowBufferHitRate*100))
		alloyRates = append(alloyRates, al.RowBufferHitRate)
		lhRates = append(lhRates, lh.RowBufferHitRate)
	}
	tab.AddRow("AMEAN",
		fmt.Sprintf("%.1f%%", stats.ArithMean(alloyRates)*100),
		fmt.Sprintf("%.2f%%", stats.ArithMean(lhRates)*100))
	fmt.Fprintln(w, "DRAM-cache row-buffer hit rate (paper: ~56% direct-mapped, <0.1% set-per-row):")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runSec56(ctx context.Context, r *Runner, w io.Writer) error {
	preds := []struct {
		Label string
		P     core.PredictorKind
	}{
		{"SAM", core.PredSAM},
		{"MAP-I", core.PredMAPI},
		{"PAM", core.PredPAM},
	}
	tab := stats.NewTable("Predictor", "Mem Reads (vs SAM)", "Off-chip Energy (vs SAM)", "Total Mem Energy (vs SAM)")
	type agg struct{ reads, off, total float64 }
	var base agg
	for i, p := range preds {
		var cur agg
		for _, wl := range DetailedWorkloads() {
			res, err := r.Run(ctx, wl, core.DesignAlloy, p.P, 0)
			if err != nil {
				return err
			}
			e := energy.ChargeSystem(res.MemStats, res.StackedStats)
			cur.reads += float64(res.MemReads)
			cur.off += e.OffChip.TotalNJ()
			cur.total += e.TotalNJ()
		}
		if i == 0 {
			base = cur
		}
		tab.AddRow(p.Label,
			fmt.Sprintf("%.2fx", cur.reads/base.reads),
			fmt.Sprintf("%.2fx", cur.off/base.off),
			fmt.Sprintf("%.2fx", cur.total/base.total))
	}
	fmt.Fprintln(w, "Memory activity and energy relative to SAM (paper: PAM ~doubles memory")
	fmt.Fprintln(w, "activity; MAP-I's wasteful accesses cost ~2% of L3 misses):")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

// ablSpeedup runs Alloy and the baseline under a mutated config and
// returns the gmean speedup across the detailed workloads.
func ablSpeedup(ctx context.Context, p Params, mutate func(*core.Config)) (float64, error) {
	var speedups []float64
	for _, wl := range DetailedWorkloads() {
		mk := func(d core.Design) (core.Result, error) {
			cfg := core.DefaultConfig(wl)
			cfg.Design = d
			cfg.Scale = p.Scale
			cfg.InstructionsPerCore = p.InstructionsPerCore
			cfg.WarmupRefs = p.WarmupRefs
			cfg.Cores = p.Cores
			cfg.GapScale = p.GapScale
			cfg.Seed = p.Seed
			mutate(&cfg)
			sys, err := core.NewSystem(cfg)
			if err != nil {
				return core.Result{}, err
			}
			return sys.RunContext(ctx)
		}
		base, err := mk(core.DesignNone)
		if err != nil {
			return 0, err
		}
		alloy, err := mk(core.DesignAlloy)
		if err != nil {
			return 0, err
		}
		speedups = append(speedups, alloy.SpeedupOver(base))
	}
	return stats.GeoMean(speedups), nil
}

func runAblMLP(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("MLP window", "Alloy GMean Speedup")
	for _, mlp := range []int{1, 2, 4, 8} {
		gm, err := ablSpeedup(ctx, r.p, func(c *core.Config) { c.CPU.MLP = mlp })
		if err != nil {
			return err
		}
		tab.AddRow(fmt.Sprintf("%d", mlp), fmt.Sprintf("%.3f", gm))
	}
	fmt.Fprintln(w, "Sensitivity of the Alloy Cache's benefit to the core's MLP window:")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runAblWbuf(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Write-buffer entries", "Alloy GMean Speedup")
	for _, n := range []int{8, 32, 64, 256} {
		gm, err := ablSpeedup(ctx, r.p, func(c *core.Config) { c.WriteBufferEntries = n })
		if err != nil {
			return err
		}
		tab.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.3f", gm))
	}
	fmt.Fprintln(w, "Sensitivity to memory-controller write-buffer depth:")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runAblChan(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Stacked channels", "Alloy GMean Speedup")
	for _, ch := range []int{1, 2, 4, 8} {
		gm, err := ablSpeedup(ctx, r.p, func(c *core.Config) { c.Stacked.Channels = ch })
		if err != nil {
			return err
		}
		tab.AddRow(fmt.Sprintf("%d", ch), fmt.Sprintf("%.3f", gm))
	}
	fmt.Fprintln(w, "Sensitivity to the stacked DRAM's channel count (paper assumes 4):")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func runAblL3Pol(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("L3 policy", "Alloy GMean Speedup")
	for _, pol := range []string{"lru", "dip", "srrip", "random"} {
		gm, err := ablSpeedup(ctx, r.p, func(c *core.Config) { c.L3Policy = pol })
		if err != nil {
			return err
		}
		tab.AddRow(pol, fmt.Sprintf("%.3f", gm))
	}
	fmt.Fprintln(w, "Sensitivity to the shared L3's replacement policy (paper uses DIP):")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

// runAblSeeds replicates the headline Alloy-vs-LH comparison across five
// workload seeds and reports mean and standard deviation of the gmean
// speedups — the reproduction's statistical-robustness check.
func runAblSeeds(ctx context.Context, r *Runner, w io.Writer) error {
	designs := []struct {
		Label string
		D     core.Design
	}{
		{"LH-Cache", core.DesignLH},
		{"Alloy", core.DesignAlloy},
		{"IDEAL-LO", core.DesignIdealLO},
	}
	tab := stats.NewTable("Design", "GMean Speedup (mean over 5 seeds)", "Stdev")
	for _, d := range designs {
		var gms []float64
		for seed := uint64(1); seed <= 5; seed++ {
			p := r.p
			p.Seed = seed
			sub := NewRunner(p)
			var pts []Point
			for _, wl := range DetailedWorkloads() {
				pts = append(pts,
					Point{Workload: wl, Design: core.DesignNone},
					Point{Workload: wl, Design: d.D})
			}
			if err := sub.Prefetch(ctx, pts); err != nil {
				return err
			}
			_, gm, err := sub.GeoMeanSpeedup(ctx, DetailedWorkloads(), d.D, core.PredDefault, 0)
			if err != nil {
				return err
			}
			gms = append(gms, gm)
		}
		tab.AddRow(d.Label,
			fmt.Sprintf("%.3f", stats.ArithMean(gms)),
			fmt.Sprintf("%.3f", stats.Stdev(gms)))
	}
	fmt.Fprintln(w, "Headline comparison replicated across workload seeds 1-5:")
	_, err := fmt.Fprint(w, tab.String())
	return err
}

func init() {
	register(Experiment{ID: "table4sim", Title: "Table 4 (empirical): measured stacked-DRAM bytes per access", Run: runTable4Sim})
}

// runTable4Sim validates Table 4's transfer accounting against the
// simulator: total stacked data-bus bytes divided by DRAM-cache demand
// accesses. Unlike the analytic table (hit-path transfers only), the
// measured number also contains fill and writeback traffic, so it sits
// between the analytic hit cost and the worst case; the design ordering
// must match regardless.
func runTable4Sim(ctx context.Context, r *Runner, w io.Writer) error {
	designs := []struct {
		Label    string
		D        core.Design
		Analytic float64 // Table 4 "transfer per access (hit)" in bytes
	}{
		{"SRAM-Tag", core.DesignSRAMTag32, 64},
		{"LH-Cache", core.DesignLH, 272},
		{"Alloy Cache", core.DesignAlloy, 80},
		{"IDEAL-LO", core.DesignIdealLO, 64},
	}
	var points []Point
	for _, wl := range DetailedWorkloads() {
		for _, d := range designs {
			points = append(points, Point{Workload: wl, Design: d.D})
		}
	}
	if err := r.Prefetch(ctx, points); err != nil {
		return err
	}
	tab := stats.NewTable("Structure", "Analytic bytes/hit", "Measured bytes/access (incl. fills)")
	for _, d := range designs {
		var busBytes, accesses float64
		for _, wl := range DetailedWorkloads() {
			res, err := r.Run(ctx, wl, d.D, core.PredDefault, 0)
			if err != nil {
				return err
			}
			busBytes += float64(res.StackedStats.BusBusy) * 16 // 16 B per bus cycle
			accesses += float64(res.L3.Misses)                 // demand accesses below L3
		}
		tab.AddRow(d.Label,
			fmt.Sprintf("%.0f byte", d.Analytic),
			fmt.Sprintf("%.0f byte", busBytes/accesses))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}
