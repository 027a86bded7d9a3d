package experiments

import (
	"context"
	"fmt"
	"io"

	"alloysim/internal/core"
	"alloysim/internal/stats"
)

// The "beyond" figure set re-renders the paper's headline comparisons
// with the design zoo included: organizations the paper's framework
// predicts (Banshee's bandwidth filtering, Gemini's hybrid mapping,
// TDRAM's parallel tag path) measured on the same axes as Figure 4 and
// Figure 9, plus the design x replacement-policy cross-product the
// registry exposes.
func init() {
	register(Experiment{ID: "beyond4", Title: "Beyond Fig 4: speedup of the design zoo vs the paper's organizations",
		Points: speedupPoints(DetailedWorkloads, zooCols), Render: runBeyond4})
	register(Experiment{ID: "beyond9", Title: "Beyond Fig 9: cache-size sensitivity with the design zoo",
		Points: speedupPoints(DetailedWorkloads, beyond9Designs, beyond9Sizes...), Render: runBeyond9})
	register(Experiment{ID: "beyond-pol", Title: "Beyond: replacement-policy cross-product on the associative designs",
		Points: beyondPolPoints, Render: runBeyondPol})
}

// zooCols is the beyond set's design lineup: the paper's three real
// organizations, the zoo, and the idealized bound.
var zooCols = []column{
	{"LH-Cache", core.DesignLH, core.PredDefault},
	{"SRAM-Tag", core.DesignSRAMTag32, core.PredDefault},
	{"Alloy", core.DesignAlloy, core.PredDefault},
	{"Banshee", core.DesignBanshee, core.PredDefault},
	{"Gemini", core.DesignGemini, core.PredDefault},
	{"TDRAM", core.DesignTDRAM, core.PredDefault},
	{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
}

func runBeyond4(ctx context.Context, r *Runner, w io.Writer) error {
	fmt.Fprintln(w, "Speedup over no-DRAM-cache baseline, 256MB cache, design zoo included:")
	if err := speedupTable(ctx, r, w, DetailedWorkloads(), zooCols); err != nil {
		return err
	}
	var labels []string
	var vals []float64
	for _, c := range zooCols {
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

var (
	beyond9Sizes   = []uint64{64, 256, 1024}
	beyond9Designs = []column{
		{"Alloy", core.DesignAlloy, core.PredDefault},
		{"Banshee", core.DesignBanshee, core.PredDefault},
		{"Gemini", core.DesignGemini, core.PredDefault},
		{"TDRAM", core.DesignTDRAM, core.PredDefault},
		{"IDEAL-LO", core.DesignIdealLO, core.PredDefault},
	}
)

func runBeyond9(ctx context.Context, r *Runner, w io.Writer) error {
	header := []string{"Size"}
	for _, d := range beyond9Designs {
		header = append(header, d.Label)
	}
	tab := stats.NewTable(header...)
	for _, mb := range beyond9Sizes {
		row := []interface{}{fmt.Sprintf("%dMB", mb)}
		for _, d := range beyond9Designs {
			_, gm, err := r.GeoMeanSpeedup(ctx, DetailedWorkloads(), Point{Design: d.D, CacheMB: mb})
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

// beyond-pol sweeps the registry's design x replacement-policy
// cross-product on the two policy-capable (set-associative) designs. The
// metric is the DRAM-cache read hit rate, which isolates the policy's
// contents effect from the latency dynamics the other figures measure.
var (
	polPolicies = []string{"lru", "random", "dip", "srrip", "brrip", "ship"}
	polDesigns  = []column{
		{"LH-Cache (29-way)", core.DesignLH, core.PredDefault},
		{"Gemini (SA region)", core.DesignGemini, core.PredDefault},
	}
)

// beyondPolPoints lists the points workload-major.
func beyondPolPoints() []Point {
	var points []Point
	for _, wl := range DetailedWorkloads() {
		for _, d := range polDesigns {
			for _, pol := range polPolicies {
				points = append(points, Point{Workload: wl, Design: d.D, Knobs: Knobs{DCPolicy: pol}})
			}
		}
	}
	return points
}

func runBeyondPol(ctx context.Context, r *Runner, w io.Writer) error {
	header := []string{"Policy"}
	for _, d := range polDesigns {
		header = append(header, d.Label)
	}
	tab := stats.NewTable(header...)
	for _, pol := range polPolicies {
		row := []interface{}{pol}
		for _, d := range polDesigns {
			var rates []float64
			for _, wl := range DetailedWorkloads() {
				res, err := r.run(ctx, Point{Workload: wl, Design: d.D, Knobs: Knobs{DCPolicy: pol}}, nil)
				if err != nil {
					return err
				}
				rates = append(rates, res.DCReadHitRate)
			}
			row = append(row, fmt.Sprintf("%.1f%%", stats.ArithMean(rates)*100))
		}
		tab.AddRow(row...)
	}
	fmt.Fprintln(w, "Mean DRAM-cache read hit rate across the 10 detailed workloads, 256MB cache:")
	_, err := fmt.Fprint(w, tab.String())
	return err
}
