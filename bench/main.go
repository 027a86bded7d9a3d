// Command bench is the simulator's benchmark: it runs four workloads, each
// repetition in a fresh child process, reports host-cost end-to-end metrics
// as medians with quartiles, checks that every simulated output is correct
// and identical across runs, and derives per-layer metrics from one extra
// traced run. README.md describes the workloads and metrics.
//
//	bash bench/run.sh                          # all workloads, 6 rounds, seed 1
//	bash bench/run.sh -runs 6 -seed 2 -out b.json
//	bash bench/run.sh -compare a.json b.json   # verdict per workload x metric
//	bash bench/run.sh --workload mcf-alloy --seed 3 --seconds 10 --trace 0
//
// The last form makes one run of one workload, repetitions for about
// --seconds and then set-up repetitions, and prints one JSON result line
// last; --trace 1 makes the traced run instead and prints the per-layer
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		if err := runChild(spec); err != nil {
			fmt.Fprintf(os.Stderr, "bench child: %v\n", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses the command line and returns the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed; 1 is the default, 2 is held out for checking claims")
	runs := fs.Int("runs", 6, "runs per workload, round-robin over the workloads")
	names := fs.String("workload", "", "comma-separated workloads (default: all)")
	out := fs.String("out", "", "write the summary as JSON to this file")
	cmp := fs.Bool("compare", false, "compare two summaries: -compare parent.json change.json")
	seconds := fs.Float64("seconds", 10, "how long each run repeats a workload")
	traced := fs.Int("trace", -1, "make one run of one -workload and print one JSON result line; 1 reports the traced run's per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}

	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two summary files")
			return 2
		}
		worse, err := compare(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	ws := workloads
	if *names != "" {
		ws = nil
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(n)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
				return 2
			}
			ws = append(ws, w)
		}
	}
	o := options{
		seed: *seed, seconds: *seconds, benchTime: "100ms",
		golden: filepath.Join("results", "fig9.txt"), work: ".bench_build",
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return fail(err)
	}

	if *traced >= 0 {
		if len(ws) != 1 {
			fmt.Fprintln(os.Stderr, "bench: -trace measures exactly one -workload")
			return 2
		}
		res, err := measure(ws[0], o, *traced == 1, stdout)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	sum, err := suite(ws, o, *runs, stdout)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	for _, w := range sum.Workloads {
		if w.Failed > 0 {
			return 1
		}
	}
	return 0
}
