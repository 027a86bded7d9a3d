package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// envStamp records where and how a summary was measured.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	Seed       uint64 `json:"seed"`
	Runs       int    `json:"runs"`
}

func stamp(seed uint64, runs int) envStamp {
	e := envStamp{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Revision: "unknown", Modified: "unknown", Seed: seed, Runs: runs,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// envDiffs lists the stamp fields on which two summaries differ. The
// revision and dirty flag are expected to differ between a parent and a
// change, and are listed like the rest.
func envDiffs(a, b envStamp) []string {
	fields := []struct {
		name string
		a, b any
	}{
		{"go_version", a.GoVersion, b.GoVersion}, {"gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS},
		{"nproc", a.NumCPU, b.NumCPU}, {"cpu_model", a.CPUModel, b.CPUModel},
		{"vcs_revision", a.Revision, b.Revision}, {"vcs_modified", a.Modified, b.Modified},
		{"seed", a.Seed, b.Seed}, {"runs", a.Runs, b.Runs},
	}
	var out []string
	for _, f := range fields {
		if f.a != f.b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", f.name, f.a, f.b))
		}
	}
	return out
}

func readSummary(path string) (summary, error) {
	var s summary
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// verdict compares a change's runs of one metric with the parent's.
// worse: the change's median is worse by more than the bound. unresolved:
// either side's spread (quartile distance over median) is wider than the
// bound and the runs do not separate. better: the median improves by more
// than either side's spread.
func verdict(parent, change stat, better string, bound float64) string {
	sign := 1.0 // positive deltas are worsenings
	if better == "higher" {
		sign = -1
	}
	delta := sign * ratio(change.Median-parent.Median, parent.Median)
	spreadP := ratio(parent.Q3-parent.Q1, parent.Median)
	spreadC := ratio(change.Q3-change.Q1, change.Median)
	if max(spreadP, spreadC) > bound {
		switch {
		case separated(parent.Values, change.Values, sign):
			return "better"
		case separated(change.Values, parent.Values, sign):
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case delta > bound:
		return "worse"
	case -delta > max(spreadP, spreadC):
		return "better"
	}
	return "same"
}

// separated reports whether every value of b is better than every value of
// a, where sign is +1 when lower is better.
func separated(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// compare prints a verdict for every workload and end-to-end metric of
// two summaries and reports whether any is worse.
func compare(parentPath, changePath string, stdout io.Writer) (worse bool, err error) {
	parent, err := readSummary(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readSummary(changePath)
	if err != nil {
		return false, err
	}
	for _, d := range envDiffs(parent.Env, change.Env) {
		fmt.Fprintf(os.Stderr, "warning: environments differ: %s\n", d)
	}
	fmt.Fprintf(stdout, "%-12s %-18s %28s %28s %6s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "bound", "verdict")
	for _, w := range workloads {
		p, c := parent.Workloads[w.Name], change.Workloads[w.Name]
		if p == nil || c == nil {
			continue
		}
		for _, m := range endToEndMetrics {
			ps, cs := p.Metrics[m.Name], c.Metrics[m.Name]
			v := verdict(ps, cs, m.Better, m.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(stdout, "%-12s %-18s %28s %28s %5.0f%%  %s\n", w.Name, m.Name, fmtStat(ps), fmtStat(cs), 100*m.Bound, v)
		}
		v := "same"
		if c.FailedFrac > p.FailedFrac {
			v, worse = "worse", true
		}
		fmt.Fprintf(stdout, "%-12s %-18s %28.4g %28.4g %5.0f%%  %s\n", w.Name, "failed_frac", p.FailedFrac, c.FailedFrac, 0.0, v)
	}
	return worse, nil
}

func fmtStat(s stat) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", s.Median, s.Q1, s.Q3)
}
