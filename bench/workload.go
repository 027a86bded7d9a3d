package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"alloysim/internal/core"
	"alloysim/internal/experiments"
	"alloysim/internal/obs"
	"alloysim/internal/validate"
)

// workload is one benchmark input: a single simulation of one profile on
// one design, or a registered experiment sweep. Each is a batch: one
// client runs a fixed amount of work to completion.
type workload struct {
	Name      string
	Why       string
	Profile   string // trace profile of a single simulation
	Design    core.Design
	Predictor core.PredictorKind
	Instr     uint64 // measured instructions per core
	Sweep     string // experiment ID; set for sweeps only
}

// workloads are chosen so each layer has one workload that exercises it
// and one that bypasses it (README.md gives the full reasoning).
var workloads = []workload{
	{
		Name: "mcf-alloy", Profile: "mcf_r", Design: core.DesignAlloy, Predictor: core.PredMAPI, Instr: 10_000_000,
		Why: "mcf_r on Alloy + MAP-I, 10M instr/core: read-heavy, 31 below-L3 accesses per kinstr, so dramcache, dram, predictor and core.readBelow do most of the work",
	},
	{
		Name: "lbm-lh29", Profile: "lbm_r", Design: core.DesignLH, Predictor: core.PredMissMap, Instr: 20_000_000,
		Why: "lbm_r on LH-Cache 29-way + MissMap, 20M instr/core: 45% writes exercise writeBelow, dirty victims, the 29-way tag search and DIP replacement",
	},
	{
		Name: "gobmk-light", Profile: "gobmk_r", Design: core.DesignAlloy, Predictor: core.PredMAPI, Instr: 300_000_000,
		Why: "gobmk_r on Alloy + MAP-I, 300M instr/core: 1 below-L3 access per kinstr, so engine, cpu, trace and L3 dominate and below-L3 changes must not move it",
	},
	{
		Name: "fig9-sweep", Sweep: "fig9",
		Why: "the committed Fig 9 sweep at default scale, 210 simulations: runner, per-point flight recorder, warmup and set-up across 64 MB-1 GB tag arrays",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tracedReps is how many repetitions the traced run profiles: one ~1.3 s
// single simulation gives the CPU profile only ~130 samples, one sweep
// ~3000.
func (w workload) tracedReps() int {
	if w.Sweep != "" {
		return 1
	}
	return 4
}

// job is what the parent asks one child process to do. The child reads it
// from the childEnv environment variable and writes a childOut to stdout.
type job struct {
	Workload string
	Seed     uint64
	Instr    uint64 // per-core budget; 1 for set-up repetitions
	Warmup   uint64 // warmup refs per core
	Golden   string // expected sweep output; empty skips the check
	Traced   bool
	// Reps, CPUProfile and BenchTime are used by traced jobs only.
	Reps       int
	CPUProfile string
	BenchTime  string
}

// sample is one repetition's measurements, taken inside the child.
type sample struct {
	WallS   float64 // construction through drain
	RunS    float64 // System.Run, or the whole sweep
	Instr   float64 // simulated instructions retired
	Mallocs float64 // heap allocations over WallS
	Output  string  // the Result as JSON, or the rendered sweep table
	Checks  int
	Failed  []string
}

// childOut is the child's report.
type childOut struct {
	Samples []sample
	Trace   *traceOut `json:",omitempty"`
}

// childEnv names the environment variable that turns a process into a
// child running one job.
const childEnv = "ALLOYBENCH_JOB"

// runChild executes the job in the environment variable and writes the
// report to stdout. Errors here are harness faults, not simulation
// failures: those are reported as failed checks inside the samples.
func runChild(spec string) error {
	var jb job
	if err := json.Unmarshal([]byte(spec), &jb); err != nil {
		return fmt.Errorf("decode job: %w", err)
	}
	w, ok := workloadByName(jb.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", jb.Workload)
	}
	var out childOut
	if jb.Traced {
		ss, tr, err := runTraced(w, jb)
		if err != nil {
			return err
		}
		out.Samples, out.Trace = ss, tr
	} else {
		s, _ := runOnce(w, jb, nil)
		out.Samples = []sample{s}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// params is the experiment runner's configuration path at the job's seed
// and budgets: 1/64 scale, 8 cores, 256 MB cache, GapScale 2. Shards is
// never set, so every simulation runs the serial front-end.
func params(jb job) experiments.Params {
	p := experiments.DefaultParams()
	p.Seed = jb.Seed
	p.InstructionsPerCore = jb.Instr
	p.WarmupRefs = jb.Warmup
	p.Parallelism = sweepParallelism()
	return p
}

// sweepParallelism is the paperfigs default on a 2-CPU host, never more
// simulations than the host has CPUs.
func sweepParallelism() int {
	return min(2, runtime.NumCPU())
}

// runOnce runs one repetition. reg, when non-nil, is attached to the
// simulation or the runner.
func runOnce(w workload, jb job, reg *obs.Registry) (sample, ranInfo) {
	var s sample
	check := func(ok bool, format string, args ...any) {
		s.Checks++
		if !ok {
			s.Failed = append(s.Failed, fmt.Sprintf(format, args...))
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	var ran ranInfo
	if w.Sweep == "" {
		sys, err := core.NewSystem(validate.PointConfig(params(jb), w.Profile, w.Design, w.Predictor, 0))
		check(err == nil, "%s: build: %v", w.Name, err)
		if err != nil {
			return s, ran
		}
		sys.EnableObservability(reg, nil)
		t1 := time.Now()
		res, err := sys.Run()
		s.RunS = time.Since(t1).Seconds()
		s.WallS = time.Since(t0).Seconds()
		check(err == nil, "%s: run: %v", w.Name, err)
		vs := validate.CheckResultInvariants(res)
		check(len(vs) == 0, "%s: invariants: %v", w.Name, vs)
		out, err := json.Marshal(res)
		check(err == nil, "%s: encode result: %v", w.Name, err)
		s.Instr, s.Output, ran.res = float64(res.Instructions), string(out), res
	} else {
		r := experiments.NewRunner(params(jb))
		if reg != nil {
			r.RegisterMetrics(reg, "runner")
		}
		e, _ := experiments.ByID(w.Sweep)
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "%s: %s\n\n", e.ID, e.Title) // the header paperfigs -o writes
		err := e.Run(context.Background(), r, &buf)
		s.WallS = time.Since(t0).Seconds()
		s.RunS = s.WallS
		check(err == nil, "%s: run: %v", w.Name, err)
		fails := r.FailureRecords()
		check(len(fails) == 0, "%s: %d failed points", w.Name, len(fails))
		if jb.Golden != "" {
			want, err := os.ReadFile(jb.Golden)
			check(err == nil, "%s: %v", w.Name, err)
			check(bytes.Equal(want, buf.Bytes()), "%s: output differs from %s", w.Name, jb.Golden)
		}
		p := params(jb)
		s.Instr = float64(r.Metrics().PointsRun) * float64(p.Cores) * float64(p.InstructionsPerCore)
		s.Output, ran.runner = buf.String(), r
	}
	ran.wallS = s.WallS
	runtime.ReadMemStats(&m1)
	s.Mallocs = float64(m1.Mallocs - m0.Mallocs)
	return s, ran
}

// runTraced runs the job's repetitions under a CPU profile, the last one
// with the registry attached, then replays each layer's public calls in
// isolation.
func runTraced(w workload, jb job) ([]sample, *traceOut, error) {
	f, err := os.Create(jb.CPUProfile)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	reg := obs.NewRegistry()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, nil, err
	}
	var ss []sample
	var ran ranInfo
	for i := 0; i < jb.Reps; i++ {
		var r *obs.Registry
		if i == jb.Reps-1 {
			r = reg
		}
		var s sample
		s, ran = runOnce(w, jb, r)
		ss = append(ss, s)
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	for _, s := range ss {
		if len(s.Failed) > 0 {
			return ss, &traceOut{}, nil
		}
	}
	reps := float64(jb.Reps)
	tr := &traceOut{
		Mallocs:   float64(m1.Mallocs-m0.Mallocs) / reps,
		GCCycles:  float64(m1.NumGC-m0.NumGC) / reps,
		GCCPUFrac: m1.GCCPUFraction,
	}
	if err := tr.read(w, jb, reg, ran); err != nil {
		return nil, nil, err
	}
	return ss, tr, nil
}
