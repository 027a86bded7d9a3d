// The phase experiment: the paper's headline numbers are end-of-run
// aggregates, but the mechanisms behind them — the DRAM cache warming
// up, the predictor converging, load spreading across stacked banks —
// are time-resolved phenomena. This experiment runs instrumented
// simulations with the epoch time series attached and renders the three
// phase figures as deterministic text tables: DRAM-cache hit rate vs
// time, predictor accuracy vs time, and per-bank load balance vs time.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"alloysim/internal/core"
	"alloysim/internal/obs"
	"alloysim/internal/stats"
)

func init() {
	register(Experiment{ID: "phase", Title: "Phase profile: hit rate, predictor accuracy, and bank balance over time", Render: runPhase})
}

// phaseWorkloads keeps the experiment cheap: one latency-sensitive and
// one streaming workload show the two canonical warm-up shapes.
var phaseWorkloads = []string{"mcf_r", "lbm_r"}

// phaseMaxRows bounds each table: long runs are downsampled to evenly
// spaced epochs (always keeping the first and last), so the table shape
// is stable across -instr scales.
const phaseMaxRows = 12

func runPhase(ctx context.Context, r *Runner, w io.Writer) error {
	for _, wl := range phaseWorkloads {
		pt := r.normalize(Point{Workload: wl, Design: core.DesignAlloy})
		sys, err := core.NewSystem(r.p.Config(pt))
		if err != nil {
			return err
		}
		ts := obs.NewTimeSeries(0)
		sys.EnableTimeSeries(ts)
		res, err := sys.RunContext(ctx)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s / %s / %s\n", res.Workload, res.Design, res.Predictor); err != nil {
			return err
		}
		if err := writePhaseTable(w, ts); err != nil {
			return err
		}
	}
	return nil
}

// phaseRow is the derived view of one epoch interval: rates computed
// from counter deltas between the selected epochs.
type phaseRow struct {
	epoch     int
	cycle     uint64
	hitRate   float64 // DRAM-cache tag hits / tag accesses in the interval
	accuracy  float64 // correct predictions / predictions in the interval
	bankRatio float64 // hottest bank / mean bank accesses in the interval
	hottest   int     // index of the hottest stacked bank in the interval
}

// writePhaseTable renders the three phase figures as one table: each row
// is one (downsampled) epoch interval with its interval-local rates.
func writePhaseTable(w io.Writer, ts *obs.TimeSeries) error {
	rows := phaseRows(ts)
	if len(rows) == 0 {
		_, err := fmt.Fprintln(w, "  (run shorter than one epoch: no phase data)")
		return err
	}
	tab := stats.NewTable("Epoch", "MCycle", "DC hit rate", "Pred accuracy", "Bank max/mean", "Hottest")
	for _, r := range rows {
		tab.AddRow(
			fmt.Sprintf("%d", r.epoch),
			fmt.Sprintf("%.2f", float64(r.cycle)/1e6),
			fmt.Sprintf("%.3f", r.hitRate),
			fmt.Sprintf("%.3f", r.accuracy),
			fmt.Sprintf("%.2f", r.bankRatio),
			fmt.Sprintf("%d", r.hottest),
		)
	}
	_, err := fmt.Fprint(w, tab.String())
	return err
}

// phaseRows derives interval rates between evenly spaced epochs. Row 0
// covers [start, first selected epoch]; every later row covers the span
// since the previous selected epoch, so rates are local to the interval
// rather than cumulative — that is what makes warm-up visible.
func phaseRows(ts *obs.TimeSeries) []phaseRow {
	n := ts.Len()
	if n < 2 {
		return nil
	}
	tagHits := ts.ColumnIndex("dramcache_tags_hits_total")
	tagMiss := ts.ColumnIndex("dramcache_tags_misses_total")
	quads := [4]int{
		ts.ColumnIndex("predictor_mem_pred_mem_total"),
		ts.ColumnIndex("predictor_mem_pred_cache_total"),
		ts.ColumnIndex("predictor_cache_pred_mem_total"),
		ts.ColumnIndex("predictor_cache_pred_cache_total"),
	}
	var banks []int
	for i, col := range ts.Columns() {
		if strings.HasPrefix(col, "dram_stacked_bank") && strings.HasSuffix(col, "_accesses_total") {
			banks = append(banks, i)
		}
	}

	// Select up to phaseMaxRows epochs past epoch 0, evenly spaced,
	// always ending at the final epoch.
	sel := make([]int, 0, phaseMaxRows)
	count := n - 1
	if count > phaseMaxRows {
		count = phaseMaxRows
	}
	for i := 1; i <= count; i++ {
		sel = append(sel, 1+(i-1)*(n-2)/max(count-1, 1))
	}
	sel[len(sel)-1] = n - 1

	val := func(row, col int) uint64 {
		if col < 0 {
			return 0
		}
		return ts.Value(row, col)
	}
	out := make([]phaseRow, 0, len(sel))
	prev := 0
	for _, e := range sel {
		pr := phaseRow{epoch: e, cycle: ts.Cycle(e)}
		hits := val(e, tagHits) - val(prev, tagHits)
		miss := val(e, tagMiss) - val(prev, tagMiss)
		if hits+miss > 0 {
			pr.hitRate = float64(hits) / float64(hits+miss)
		}
		var correct, total uint64
		for qi, q := range quads {
			d := val(e, q) - val(prev, q)
			total += d
			if qi == 0 || qi == 3 { // mem→mem and cache→cache are correct
				correct += d
			}
		}
		if total > 0 {
			pr.accuracy = float64(correct) / float64(total)
		}
		var sum, max uint64
		for bi, b := range banks {
			d := val(e, b) - val(prev, b)
			sum += d
			if d > max {
				max = d
				pr.hottest = bi
			}
		}
		if sum > 0 && len(banks) > 0 {
			pr.bankRatio = float64(max) * float64(len(banks)) / float64(sum)
		}
		out = append(out, pr)
		prev = e
	}
	return out
}
