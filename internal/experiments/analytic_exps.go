package experiments

import (
	"context"
	"fmt"
	"io"

	"alloysim/internal/analytic"
	"alloysim/internal/stats"
)

func init() {
	register(Experiment{
		ID:     "fig1",
		Title:  "Figure 1: break-even hit-rate for a fast (0.1) and slow (0.5) cache",
		Render: runFig1,
	})
	register(Experiment{
		ID:     "fig3",
		Title:  "Figure 3: latency breakdown for isolated accesses X and Y",
		Render: runFig3,
	})
	register(Experiment{
		ID:     "table4",
		Title:  "Table 4: bandwidth comparison relative to off-chip memory",
		Render: runTable4,
	})
}

func runFig1(_ context.Context, _ *Runner, w io.Writer) error {
	for _, scenario := range []struct {
		label      string
		hitLatency float64
	}{
		{"(a) Fast Cache [hit latency 0.1]", 0.1},
		{"(b) Slow Cache [hit latency 0.5]", 0.5},
	} {
		fmt.Fprintf(w, "%s\n", scenario.label)
		tab := stats.NewTable("HitRate", "Base AvgLat", "Opt-A AvgLat (1.4x lat, +20pp hit)")
		for h := 0.0; h <= 1.0001; h += 0.1 {
			base := analytic.AvgLatency(h, scenario.hitLatency)
			withA := analytic.AvgLatency(min(h+0.2, 1), scenario.hitLatency*1.4)
			tab.AddRow(fmt.Sprintf("%.0f%%", h*100), base, withA)
		}
		fmt.Fprint(w, tab.String())
		behr, ok := analytic.BreakEvenHitRate(0.5, scenario.hitLatency, 1.4)
		fmt.Fprintf(w, "Break-even hit rate for opt A at 50%% base hit rate: %.0f%% (achievable: %v)\n\n", behr*100, ok)
	}
	return nil
}

func runFig3(_ context.Context, _ *Runner, w io.Writer) error {
	tab := stats.NewTable("Design", "Hit/X", "Hit/Y", "Miss/X", "Miss/Y")
	for _, b := range analytic.Fig3Breakdowns(analytic.PaperTiming()) {
		tab.AddRow(b.Design, b.HitX, b.HitY, b.MissX, b.MissY)
	}
	fmt.Fprint(w, tab.String())
	fmt.Fprintln(w, "\nX: off-chip row-buffer hit available; Y: row must be activated.")
	fmt.Fprintln(w, "All latencies in processor cycles, matching Figure 3 of the paper.")
	return nil
}

func runTable4(_ context.Context, _ *Runner, w io.Writer) error {
	tab := stats.NewTable("Structure", "Raw Bandwidth", "Bytes per hit", "Effective Bandwidth")
	for _, b := range analytic.Table4Bandwidth() {
		tab.AddRow(b.Structure,
			fmt.Sprintf("%.0fx", b.RawBandwidth),
			fmt.Sprintf("%.0f byte", b.BytesPerHit),
			fmt.Sprintf("%.1fx", b.EffectiveBW))
	}
	fmt.Fprint(w, tab.String())
	return nil
}
