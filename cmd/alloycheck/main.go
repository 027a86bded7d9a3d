// Command alloycheck runs the validation harness from internal/validate
// and exits nonzero when the simulator disagrees with the paper's closed
// forms or violates a metamorphic property. It is the pre-flight gate
// for timing changes: run it before trusting regenerated results.
//
//	alloycheck -mode fig3          # differential: measured vs analytic, exact
//	alloycheck -mode props         # metamorphic sweep at QuickParams scale
//	alloycheck                     # both
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"alloysim/internal/experiments"
	"alloysim/internal/validate"
)

func main() {
	var (
		mode      = flag.String("mode", "all", "which checks to run: fig3, props, all")
		workloads = flag.String("workloads", "", "comma-separated workloads for -mode props (default: the sweep's built-ins)")
		instr     = flag.Uint64("instr", 0, "override instructions per core for -mode props (0 = QuickParams)")
		slack     = flag.Float64("slack", 0, "per-workload ordering tolerance for -mode props (0 = validate.DefaultSlack)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	failed := false
	switch *mode {
	case "fig3":
		failed = runFig3()
	case "props":
		failed = runProps(ctx, *workloads, *instr, *slack)
	case "all":
		failed = runFig3()
		failed = runProps(ctx, *workloads, *instr, *slack) || failed
	default:
		fmt.Fprintf(os.Stderr, "alloycheck: unknown mode %q (want fig3, props, or all)\n", *mode)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// runFig3 measures every isolated-access cell against the closed form
// and reports true when any cell diverges. The gate is exact: one cycle
// of drift in any design's hit or miss path fails.
func runFig3() bool {
	rows, err := validate.Fig3Diff()
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloycheck: fig3: %v\n", err)
		return true
	}
	diverging, err := validate.WriteFig3(os.Stdout, rows)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloycheck: fig3: %v\n", err)
		return true
	}
	if diverging > 0 {
		fmt.Printf("fig3: %d of %d cells DIVERGE from the analytic model\n", diverging, len(rows))
		return true
	}
	fmt.Printf("fig3: all %d cells match the analytic model exactly\n", len(rows))
	return false
}

// runProps executes the metamorphic sweep and reports true on any
// violation.
func runProps(ctx context.Context, workloads string, instr uint64, slack float64) bool {
	opt := validate.PropertyOptions{Params: experiments.QuickParams(), Slack: slack}
	if instr > 0 {
		opt.Params.InstructionsPerCore = instr
	}
	if workloads != "" {
		opt.Workloads = strings.Split(workloads, ",")
	}
	rep, err := validate.RunProperties(ctx, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloycheck: props: %v\n", err)
		return true
	}
	if err := validate.WriteReport(os.Stdout, rep); err != nil {
		fmt.Fprintf(os.Stderr, "alloycheck: props: %v\n", err)
		return true
	}
	if len(rep.Violations) > 0 {
		// The telemetry of each tripped gate goes to stderr so stdout
		// stays the stable report the harness parses.
		if err := validate.WriteTelemetry(os.Stderr, rep); err != nil {
			fmt.Fprintf(os.Stderr, "alloycheck: props: %v\n", err)
		}
	}
	return len(rep.Violations) > 0
}
