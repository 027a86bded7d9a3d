// Command paperfigs regenerates the tables and figures of the paper's
// evaluation. Run with no flags to regenerate everything, or select one
// experiment with -exp.
//
// It first simulates every point the selected experiments read, as one
// parallel list grouped by warmup front, and prints the list's size and
// wall time; then it renders each table from the results. A table's
// "(<id> in …)" line and its -o manifest time the rendering only.
//
//	paperfigs -exp fig4          # one experiment
//	paperfigs -list              # list experiment IDs
//	paperfigs -quick             # smaller traces, faster, noisier
//	paperfigs -scale 32 -instr 3000000
//	paperfigs -checkpoint sweep.ckpt   # resume an interrupted sweep
//
// A point that fails leaves out each table that reads it, and a table
// that fails to render writes no results file; the other tables are still
// rendered and written, each one left out is named with its error, and
// paperfigs exits 1.
//
// Ctrl-C (or SIGTERM) cancels the sweep between simulation quanta. A
// Ctrl-C during the simulations writes no results file, but with
// -checkpoint each completed point is already a line in the file, so
// re-running with the same flags resumes instead of restarting.
//
// Telemetry is read when the sweep ends: the summary line and -metrics
// report the runner's counters, and -v prints each point as it completes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"alloysim/internal/experiments"
	"alloysim/internal/obs"
)

// startProfiles begins CPU profiling and arranges a heap snapshot, as
// selected by the -cpuprofile/-memprofile flags. The returned stop function
// must run before exit (it finalizes both files).
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

func main() {
	var (
		exp        = flag.String("exp", "", "experiment ID to run (default: all)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		quick      = flag.Bool("quick", false, "use reduced trace lengths")
		scale      = flag.Uint64("scale", 0, "capacity scale divisor (default 64)")
		instr      = flag.Uint64("instr", 0, "instructions per core (default 1.5M)")
		seed       = flag.Uint64("seed", 0, "workload seed (default 1)")
		progress   = flag.Bool("v", false, "print each completed simulation")
		outDir     = flag.String("o", "", "also write each experiment's output to <dir>/<id>.txt")
		checkpoint = flag.String("checkpoint", "", "memo checkpoint file: completed points are saved here and restored on the next run")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsOut = flag.String("metrics", "", `write a sweep-metrics dump at exit ("-" = stdout, Prometheus text)`)
	)
	flag.Parse()

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	params := experiments.DefaultParams()
	if *quick {
		params = experiments.QuickParams()
	}
	if *scale > 0 {
		params.Scale = *scale
	}
	if *instr > 0 {
		params.InstructionsPerCore = *instr
	}
	if *seed > 0 {
		params.Seed = *seed
	}
	if *progress {
		params.Progress = os.Stderr
	}
	runner := experiments.NewRunner(params)

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
		runner.RegisterMetrics(reg, "runner")
	}

	if *checkpoint != "" {
		restored, err := runner.EnableCheckpoint(*checkpoint)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			// A path that cannot be created has nothing to delete.
			if _, serr := os.Stat(*checkpoint); serr == nil {
				fmt.Fprintf(os.Stderr, "paperfigs: delete %s or rerun with the parameters it was written under\n", *checkpoint)
			}
			os.Exit(1)
		}
		if restored > 0 {
			fmt.Printf("restored %d completed point(s) from %s\n", restored, *checkpoint)
		}
	}

	// Ctrl-C / SIGTERM cancel the sweep cooperatively: in-flight
	// simulations stop at the next engine quantum, and every point that
	// already completed is in the checkpoint.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
			os.Exit(1)
		}
	}

	// fail finishes the process after an error: the run summary and the
	// resume hint still print, so an interrupted sweep tells the user how
	// to pick it back up.
	fail := func(code int) {
		runner.WriteSummary(os.Stdout)
		if err := runner.CheckpointErr(); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		}
		if *checkpoint != "" && ctx.Err() != nil {
			fmt.Printf("interrupted: completed points are in %s; re-run with the same flags to resume\n", *checkpoint)
		}
		stopProf()
		os.Exit(code)
	}

	selected := experiments.All()
	if *exp != "" {
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "paperfigs: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		selected = []experiments.Experiment{e}
	}

	// One Prefetch runs the points of every selected experiment, so each
	// warmup front is recorded once per process and each shared tag store
	// is warmed once; the tables then render from the memo.
	var points []experiments.Point
	for _, e := range selected {
		if e.Points != nil {
			points = append(points, e.Points()...)
		}
	}
	start, ran := time.Now(), runner.Metrics().PointsRun
	prefetchErr := runner.Prefetch(ctx, points)
	if prefetchErr != nil && ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", ctx.Err()) // not one line per unstarted point
		fail(1)
	}
	fmt.Printf("(%d points listed, %d simulated, in %.1fs)\n\n", len(points), runner.Metrics().PointsRun-ran, time.Since(start).Seconds())

	failed := prefetchErr != nil
	for _, e := range selected {
		// Every failed point has a record, so this leaves out exactly the
		// tables that would read one, and simulates nothing a second time.
		if e.Points != nil {
			if f, ok := runner.Failure(e.Points()); ok {
				fmt.Fprintf(os.Stderr, "paperfigs: %s failed: %s: %s\n", e.ID, f.Point, f.Err)
				continue
			}
		}
		start := time.Now()
		// The sidecar manifest is started per experiment, after the
		// simulations, so its wall time covers rendering this results file.
		man := obs.NewManifest("paperfigs", os.Args[1:])
		man.ParamsFingerprint = params.Fingerprint()
		man.Seed = int64(params.Seed)
		man.Extra["experiment"] = e.ID
		man.Extra["title"] = e.Title
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		var out io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			var err error
			f, err = os.Create(filepath.Join(*outDir, e.ID+".txt"))
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
				fail(1)
			}
			fmt.Fprintf(f, "%s: %s\n\n", e.ID, e.Title)
			out = io.MultiWriter(os.Stdout, f)
		}
		if err := e.Render(ctx, runner, out); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: %s failed: %v\n", e.ID, err)
			if ctx.Err() != nil {
				fail(1)
			}
			if f != nil { // no partial results file
				f.Close()
				os.Remove(f.Name())
			}
			failed = true
			continue
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
				fail(1)
			}
			man.Finish()
			if err := man.WriteFile(filepath.Join(*outDir, e.ID+".manifest.json")); err != nil {
				fmt.Fprintf(os.Stderr, "paperfigs: manifest: %v\n", err)
				fail(1)
			}
		}
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if failed {
		fail(1)
	}
	runner.WriteSummary(os.Stdout)
	if *metricsOut != "" {
		if err := dumpMetrics(*metricsOut, reg); err != nil {
			fmt.Fprintf(os.Stderr, "paperfigs: metrics: %v\n", err)
			os.Exit(1)
		}
	}
	// Every point completed, but a failed append left points out of the
	// checkpoint, so a resumed sweep would simulate them again.
	if err := runner.CheckpointErr(); err != nil {
		fmt.Fprintf(os.Stderr, "paperfigs: %v\n", err)
		os.Exit(1)
	}
}

// dumpMetrics writes the registry in Prometheus text exposition format to
// the given path ("-" = stdout).
func dumpMetrics(dest string, reg *obs.Registry) error {
	if dest == "-" {
		return reg.WritePrometheus(os.Stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
