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
	register(Experiment{ID: "sec27", Title: "Section 2.7: DRAM-cache row-buffer hit rate, direct-mapped vs set-per-row",
		Points: cellPoints(DetailedWorkloads, sec27Designs), Render: runSec27})
	register(Experiment{ID: "sec56", Title: "Section 5.6: memory energy implications of SAM/PAM/MAP-I",
		Points: cellPoints(DetailedWorkloads, sec56Preds), Render: runSec56})
	for _, a := range ablations {
		register(Experiment{ID: a.id, Title: a.title, Points: a.points, Render: a.render})
	}
	register(Experiment{ID: "abl-seeds", Title: "Ablation: seed robustness of the headline comparison",
		Points: ablSeedsPoints, Render: runAblSeeds})
}

var sec27Designs = []column{
	{"Alloy (28 sets/row)", core.DesignAlloy, core.PredDefault},
	{"LH-Cache (set-per-row)", core.DesignLH, core.PredDefault},
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

var sec56Preds = []column{
	{"SAM", core.DesignAlloy, core.PredSAM},
	{"MAP-I", core.DesignAlloy, core.PredMAPI},
	{"PAM", core.DesignAlloy, core.PredPAM},
}

func runSec56(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Predictor", "Mem Reads (vs SAM)", "Off-chip Energy (vs SAM)", "Total Mem Energy (vs SAM)")
	type agg struct{ reads, off, total float64 }
	var base agg
	for i, p := range sec56Preds {
		var cur agg
		for _, wl := range DetailedWorkloads() {
			res, err := r.Run(ctx, wl, p.D, p.P, 0)
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

// ablation is Alloy's gmean speedup over the detailed workloads under
// each knob setting, labels[i] naming knobs[i].
type ablation struct {
	id, title, intro, column string
	labels                   []string
	knobs                    []Knobs
}

var ablations = []ablation{
	{"abl-mlp", "Ablation: core memory-level parallelism window",
		"Sensitivity of the Alloy Cache's benefit to the core's MLP window:", "MLP window",
		[]string{"1", "2", "4", "8"},
		[]Knobs{{MLP: 1}, {MLP: 2}, {MLP: 4}, {MLP: 8}}},
	{"abl-wbuf", "Ablation: memory-controller write-buffer depth",
		"Sensitivity to memory-controller write-buffer depth:", "Write-buffer entries",
		[]string{"8", "32", "64", "256"},
		[]Knobs{{WriteBuffer: 8}, {WriteBuffer: 32}, {WriteBuffer: 64}, {WriteBuffer: 256}}},
	{"abl-chan", "Ablation: stacked-DRAM channel count",
		"Sensitivity to the stacked DRAM's channel count (paper assumes 4):", "Stacked channels",
		[]string{"1", "2", "4", "8"},
		[]Knobs{{StackedChannels: 1}, {StackedChannels: 2}, {StackedChannels: 4}, {StackedChannels: 8}}},
	{"abl-l3pol", "Ablation: L3 replacement policy",
		"Sensitivity to the shared L3's replacement policy (paper uses DIP):", "L3 policy",
		[]string{"lru", "dip", "srrip", "random"},
		[]Knobs{{L3Policy: "lru"}, {L3Policy: "dip"}, {L3Policy: "srrip"}, {L3Policy: "random"}}},
}

// points lists each setting's baseline and Alloy point, workload-major.
func (a ablation) points() []Point {
	var points []Point
	for _, wl := range DetailedWorkloads() {
		for _, k := range a.knobs {
			points = append(points,
				Point{Workload: wl, Design: core.DesignNone, Knobs: k},
				Point{Workload: wl, Design: core.DesignAlloy, Knobs: k})
		}
	}
	return points
}

func (a ablation) render(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable(a.column, "Alloy GMean Speedup")
	for i, k := range a.knobs {
		_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), Point{Design: core.DesignAlloy, Knobs: k})
		if err != nil {
			return err
		}
		tab.AddRow(a.labels[i], fmt.Sprintf("%.3f", gm))
	}
	fmt.Fprintln(w, a.intro)
	_, err := fmt.Fprint(w, tab.String())
	return err
}

// seedDesigns are the headline designs abl-seeds replicates over
// workload seeds 1 to seeds.
var seedDesigns = []column{
	{"LH-Cache", core.DesignLH, core.PredDefault},
	{"Alloy", core.DesignAlloy, core.PredDefault},
	{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
}

const seeds = 5

// ablSeedsPoints lists the points workload-major, then seed.
func ablSeedsPoints() []Point {
	var points []Point
	for _, wl := range DetailedWorkloads() {
		for seed := uint64(1); seed <= seeds; seed++ {
			points = append(points, Point{Workload: wl, Design: core.DesignNone, Knobs: Knobs{Seed: seed}})
			for _, d := range seedDesigns {
				points = append(points, Point{Workload: wl, Design: d.D, Knobs: Knobs{Seed: seed}})
			}
		}
	}
	return points
}

// runAblSeeds replicates the headline Alloy-vs-LH comparison across five
// workload seeds and reports mean and standard deviation of the gmean
// speedups — the reproduction's statistical-robustness check.
func runAblSeeds(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Design", "GMean Speedup (mean over 5 seeds)", "Stdev")
	for _, d := range seedDesigns {
		var gms []float64
		for seed := uint64(1); seed <= seeds; seed++ {
			_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), Point{Design: d.D, Knobs: Knobs{Seed: seed}})
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
	register(Experiment{ID: "table4sim", Title: "Table 4 (empirical): measured stacked-DRAM bytes per access",
		Points: cellPoints(DetailedWorkloads, table4Designs), Render: runTable4Sim})
}

// table4Designs are Table 4's structures, and table4Analytic its
// "transfer per access (hit)" for each, in bytes.
var (
	table4Designs = []column{
		{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
		{"LH-Cache", core.DesignLH, core.PredDefault},
		{"Alloy Cache", core.DesignAlloy, core.PredDefault},
		{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
	}
	table4Analytic = []float64{64, 272, 80, 64}
)

// runTable4Sim validates Table 4's transfer accounting against the
// simulator: total stacked data-bus bytes divided by DRAM-cache demand
// accesses. Unlike the analytic table (hit-path transfers only), the
// measured number also contains fill and writeback traffic, so it sits
// between the analytic hit cost and the worst case; the design ordering
// must match regardless.
func runTable4Sim(ctx context.Context, r *Runner, w io.Writer) error {
	tab := stats.NewTable("Structure", "Analytic bytes/hit", "Measured bytes/access (incl. fills)")
	for i, d := range table4Designs {
		var busBytes, accesses float64
		for _, wl := range DetailedWorkloads() {
			res, err := r.Run(ctx, wl, d.D, d.P, 0)
			if err != nil {
				return err
			}
			busBytes += float64(res.StackedStats.BusBusy) * 16 // 16 B per bus cycle
			accesses += float64(res.L3.Misses)                 // demand accesses below L3
		}
		tab.AddRow(d.Label,
			fmt.Sprintf("%.0f byte", table4Analytic[i]),
			fmt.Sprintf("%.0f byte", busBytes/accesses))
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}
