package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"alloysim/internal/experiments"
)

// endToEndMetric is one metric a user of the simulator sees, with the
// share of the parent's median by which it may worsen before a change
// counts as a regression.
type endToEndMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// The time bounds are the widest allowed because host time on a shared
// 2-CPU sandbox drifts by 10-20% over minutes (README.md). Allocation
// counts repeat closely; peak RSS does too for single simulations, but the
// sweep's moves by a few percent with how its concurrent points overlap.
var endToEndMetrics = []endToEndMetric{
	{"wall_s", "s", "lower", 0.25},
	{"sim_mips", "Minstr/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"allocs_per_kinstr", "allocs/kinstr", "lower", 0.02},
}

// options are the settings one measurement runs under. Tests shrink the
// budgets; the command line sets the seed and the run length.
type options struct {
	seed        uint64
	seconds     float64 // how long each run repeats the workload
	golden      string  // expected seed-1 sweep output
	work        string  // directory for CPU profiles
	benchTime   string  // testing.Benchmark time per layer replay
	instr       uint64  // when nonzero, every single simulation's per-core budget
	sweepInstr  uint64  // when nonzero, the sweep's per-core budget
	sweepWarmup uint64  // when nonzero, the sweep's warmup refs per core
}

// job returns the job of one timed repetition of a workload.
func (o options) job(w workload) job {
	p := experiments.DefaultParams()
	jb := job{Workload: w.Name, Seed: o.seed, Instr: w.Instr, Warmup: p.WarmupRefs, BenchTime: o.benchTime}
	switch {
	case w.Sweep != "":
		jb.Instr = p.InstructionsPerCore
		if o.sweepInstr > 0 {
			jb.Instr = o.sweepInstr
		}
		if o.sweepWarmup > 0 {
			jb.Warmup = o.sweepWarmup
		}
		if o.seed == 1 {
			jb.Golden = o.golden
		}
	case o.instr > 0:
		jb.Instr = o.instr
	}
	return jb
}

// tracedJob returns the traced-run job for a workload.
func (o options) tracedJob(w workload) job {
	jb := o.job(w)
	jb.Traced, jb.Reps = true, w.tracedReps()
	jb.CPUProfile = filepath.Join(o.work, w.Name+".cpu.pprof")
	return jb
}

// stat summarizes repeated measurements of one metric.
type stat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// summarize computes the median and quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func summarize(values []float64, unit string) stat {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	st := stat{N: len(v), Unit: unit, Values: values}
	switch n := len(v); n {
	case 0:
	case 1:
		st.Median, st.Q1, st.Q3 = v[0], v[0], v[0]
	default:
		q := func(i int) float64 {
			m := n + 1
			j := min(max(i*m/4, 1), n-1)
			delta := float64(i*m - j*4)
			return (v[j-1]*(4-delta) + v[j]*delta) / 4
		}
		st.Q1, st.Median, st.Q3 = q(1), q(2), q(3)
	}
	return st
}

func median(values []float64) float64 { return summarize(values, "").Median }

// span is one timed interval of the benchmark's own work.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// spanLog keeps spans in memory until the summary is written.
type spanLog struct{ spans []span }

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: time.Now()})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = time.Now() }

// adopt appends spans a child recorded, under parent.
func (l *spanLog) adopt(children []span, parent int) {
	for _, s := range children {
		s.ID, s.Parent = len(l.spans)+1, parent
		l.spans = append(l.spans, s)
	}
}

// spawn runs one job in a fresh child process, a re-exec of this binary,
// so heap, GC state and max RSS belong to that job alone. It returns the
// child's report and its max RSS in MB.
func spawn(jb job) (childOut, float64, error) {
	var co childOut
	spec, err := json.Marshal(jb)
	if err != nil {
		return co, 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return co, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	// A child must not outlive a benchmark that is killed mid-run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return co, 0, fmt.Errorf("%s child: %w", jb.Workload, err)
	}
	if err := json.Unmarshal(out, &co); err != nil {
		return co, 0, fmt.Errorf("%s child report: %w", jb.Workload, err)
	}
	if len(co.Samples) == 0 {
		return co, 0, fmt.Errorf("%s child reported no samples", jb.Workload)
	}
	ru, _ := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return co, 0, fmt.Errorf("%s child: no rusage", jb.Workload)
	}
	return co, float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// tally accumulates one workload's runs and correctness checks.
type tally struct {
	w         workload
	o         options
	spans     *spanLog
	root      int
	runs      map[string][]float64 // one value per run for each end-to-end metric
	timed     []sample             // every untraced repetition
	attempted int
	failed    int
	ref       map[string]string // first output per job kind
	layers    map[string]float64
}

func newTally(w workload, o options, spans *spanLog) *tally {
	return &tally{w: w, o: o, spans: spans, root: spans.begin(w.Name, 0), runs: map[string][]float64{}, ref: map[string]string{}}
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", t.w.Name, fmt.Sprintf(format, args...))
	}
}

// absorb counts a child's checks and checks each output against the first
// output of the same kind: every run of one seed must agree exactly.
func (t *tally) absorb(kind string, ss []sample) {
	for _, s := range ss {
		t.attempted += s.Checks
		t.failed += len(s.Failed)
		for _, f := range s.Failed {
			fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
		}
		if ref, ok := t.ref[kind]; ok {
			t.check(s.Output == ref, "%s output differs between runs", kind)
		} else {
			t.ref[kind] = s.Output
		}
	}
}

// repeat runs one untraced repetition at the workload's budget and returns
// it with the child's max RSS in MB.
func (t *tally) repeat() (sample, float64, error) {
	id := t.spans.begin("run", t.root)
	co, rss, err := spawn(t.o.job(t.w))
	t.spans.end(id)
	if err != nil {
		return sample{}, 0, err
	}
	t.absorb("run", co.Samples)
	t.timed = append(t.timed, co.Samples[0])
	return co.Samples[0], rss, nil
}

// setup runs the workload once at one instruction per core, in a fresh
// child like a timed repetition, and returns its wall time: everything a
// repetition pays regardless of its length.
func (t *tally) setup() (float64, error) {
	jb := t.o.job(t.w)
	jb.Instr, jb.Golden = 1, ""
	id := t.spans.begin("setup", t.root)
	co, _, err := spawn(jb)
	t.spans.end(id)
	if err != nil {
		return 0, err
	}
	t.absorb("setup", co.Samples)
	return co.Samples[0].WallS, nil
}

// minSetups is the fewest set-up repetitions in a run; the sweep's ~17 s
// repetition fits only one per run otherwise.
const minSetups = 3

// run makes one run: for about o.seconds (at least once), a timed
// repetition followed by a set-up repetition, so that set-up samples are
// spread over the run like the timed ones; then more set-up repetitions
// up to minSetups. The run's value of each end-to-end metric is its median
// over the run's repetitions.
func (t *tally) run() error {
	per := map[string][]float64{}
	deadline := time.Duration(t.o.seconds * float64(time.Second))
	start := time.Now()
	for {
		rep := time.Now()
		s, rss, err := t.repeat()
		if err != nil {
			return err
		}
		per["wall_s"] = append(per["wall_s"], s.WallS)
		per["sim_mips"] = append(per["sim_mips"], s.Instr/s.RunS/1e6)
		per["peak_rss_mb"] = append(per["peak_rss_mb"], rss)
		per["allocs_per_kinstr"] = append(per["allocs_per_kinstr"], s.Mallocs/(s.Instr/1000))
		su, err := t.setup()
		if err != nil {
			return err
		}
		per["setup_s"] = append(per["setup_s"], su)
		// Stop unless another pair would end within half a pair of the
		// deadline.
		if time.Since(start)+time.Since(rep)/2 >= deadline {
			break
		}
	}
	for len(per["setup_s"]) < minSetups {
		su, err := t.setup()
		if err != nil {
			return err
		}
		per["setup_s"] = append(per["setup_s"], su)
	}
	for _, m := range endToEndMetrics {
		t.runs[m.Name] = append(t.runs[m.Name], median(per[m.Name]))
	}
	return nil
}

// traced makes the traced run and derives the per-layer metrics. It needs
// an untraced repetition first, to compare against.
func (t *tally) traced() error {
	jb := t.o.tracedJob(t.w)
	id := t.spans.begin("traced", t.root)
	co, _, err := spawn(jb)
	t.spans.end(id)
	if err != nil {
		return err
	}
	t.absorb("run", co.Samples)
	L := map[string]float64{}
	if tr := co.Trace; tr != nil && tr.Layers != nil {
		t.spans.adopt(tr.Spans, id)
		shares, err := profileShares(jb.CPUProfile)
		if err != nil {
			return err
		}
		for k, v := range tr.Layers {
			L[k] = v
		}
		for k, v := range shares {
			L[k] = v
		}
		runS, wallS := median(column(t.timed, sampleRunS)), median(column(t.timed, sampleWallS))
		L["sim.ns_per_event"] = ratio(runS*1e9, tr.Events)
		L["core.host_ns_per_below"] = ratio(runS*1e9, tr.Below)
		L["tracing_overhead_frac"] = ratio(median(column(co.Samples, sampleWallS))-wallS, wallS)
	}
	t.layers = map[string]float64{}
	for _, m := range layerMetrics() {
		t.layers[m.Name] = L[m.Name]
	}
	return nil
}

func sampleRunS(s sample) float64  { return s.RunS }
func sampleWallS(s sample) float64 { return s.WallS }

func column(ss []sample, f func(sample) float64) []float64 {
	var out []float64
	for _, s := range ss {
		out = append(out, f(s))
	}
	return out
}

// endToEnd summarizes the runs.
func (t *tally) endToEnd() map[string]stat {
	out := map[string]stat{}
	for _, m := range endToEndMetrics {
		out[m.Name] = summarize(t.runs[m.Name], m.Unit)
	}
	return out
}

func (t *tally) failedFrac() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// result is the single-line report of one run.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure makes one run of one workload and reports its end-to-end
// metrics; with traced, it makes as many untraced repetitions as the
// traced run has, then the traced run, and reports the per-layer metrics.
func measure(w workload, o options, traced bool, stdout io.Writer) (result, error) {
	t := newTally(w, o, &spanLog{})
	res := result{Metrics: map[string]valueUnit{}}
	if traced {
		for i := 0; i < w.tracedReps(); i++ {
			if _, _, err := t.repeat(); err != nil {
				return res, err
			}
		}
		if err := t.traced(); err != nil {
			return res, err
		}
		for _, m := range layerMetrics() {
			res.Metrics[m.Name] = valueUnit{t.layers[m.Name], m.Unit}
		}
	} else {
		if err := t.run(); err != nil {
			return res, err
		}
		for _, m := range endToEndMetrics {
			v := t.runs[m.Name][0]
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.Name, m.Name, v, m.Unit)
			res.Metrics[m.Name] = valueUnit{v, m.Unit}
		}
	}
	res.Attempted, res.Failed, res.Correct = t.attempted, t.failed, t.failed == 0
	return res, nil
}

// workloadSummary is one workload's part of a suite summary.
type workloadSummary struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Metrics    map[string]stat    `json:"metrics"`
	Layers     map[string]float64 `json:"layers"`
}

// summary is what a suite run writes with -out and -compare reads.
type summary struct {
	Env       envStamp                    `json:"env"`
	Workloads map[string]*workloadSummary `json:"workloads"`
	Spans     []span                      `json:"spans"`
}

// suite makes `runs` runs of each workload, round-robin, then one traced
// run per workload, and prints every metric as
// `workload metric median q1 q3 n unit`.
func suite(ws []workload, o options, runs int, stdout io.Writer) (summary, error) {
	spans := &spanLog{}
	var ts []*tally
	for _, w := range ws {
		ts = append(ts, newTally(w, o, spans))
	}
	for r := 0; r < runs; r++ {
		for _, t := range ts {
			if err := t.run(); err != nil {
				return summary{}, err
			}
		}
	}
	sum := summary{Env: stamp(o.seed, runs), Workloads: map[string]*workloadSummary{}}
	for _, t := range ts {
		if err := t.traced(); err != nil {
			return summary{}, err
		}
		spans.end(t.root)
		ws := &workloadSummary{Attempted: t.attempted, Failed: t.failed, FailedFrac: t.failedFrac(), Metrics: t.endToEnd(), Layers: t.layers}
		sum.Workloads[t.w.Name] = ws
		for _, m := range endToEndMetrics {
			st := ws.Metrics[m.Name]
			fmt.Fprintf(stdout, "%-12s %-34s %12.6g %12.6g %12.6g %3d %s\n", t.w.Name, m.Name, st.Median, st.Q1, st.Q3, st.N, st.Unit)
		}
		fmt.Fprintf(stdout, "%-12s %-34s %12.6g %12s %12s %3d %s\n", t.w.Name, "failed_frac", ws.FailedFrac, "", "", t.attempted, "ratio")
		for _, m := range layerMetrics() {
			fmt.Fprintf(stdout, "%-12s %-34s %12.6g %12s %12s %3d %s\n", t.w.Name, m.Name, t.layers[m.Name], "", "", 1, m.Unit)
		}
	}
	sum.Spans = spans.spans
	return sum, nil
}
