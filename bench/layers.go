package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"alloysim/internal/cache"
	"alloysim/internal/core"
	"alloysim/internal/dram"
	"alloysim/internal/dramcache"
	"alloysim/internal/experiments"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/predictor"
	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// Layers are named after the modules. cache includes internal/policy;
// runtime is the Go allocator and collector; other is everything else,
// the standard library and this benchmark included.
var profileLayers = []string{
	"sim", "cpu", "trace", "core", "cache", "predictor", "dramcache", "dram",
	"runtime", "obs", "experiments", "memaddr", "stats", "other",
}

// layerMetric describes one per-layer metric of a traced run.
type layerMetric struct {
	Name, Unit, Better string
}

// layerMetrics lists every per-layer metric, in report order. Metrics a
// workload cannot observe read 0: runner counters on single simulations,
// simulator counters on the sweep, whose points are not observable one by
// one through the runner.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"sim.events_per_kinstr", "1/kinstr", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"trace.replay_ns_per_ref", "ns", "lower"},
		{"core.warm_frac", "ratio", "lower"},
		{"core.below_per_kinstr", "1/kinstr", "lower"},
		{"core.host_ns_per_below", "ns", "lower"},
		{"cache.l3_hit_rate", "ratio", "higher"},
		{"cache.l3_accesses_per_kinstr", "1/kinstr", "lower"},
		{"cache.replay_ns_per_access", "ns", "lower"},
		{"cache.replay_allocs_per_access", "count", "lower"},
		{"predictor.accuracy", "ratio", "higher"},
		{"predictor.wasted_probe_frac", "ratio", "lower"},
		{"predictor.replay_ns_per_call", "ns", "lower"},
		{"dramcache.read_hit_rate", "ratio", "higher"},
		{"dramcache.row_buffer_hit_rate", "ratio", "higher"},
		{"dramcache.accesses_per_kinstr", "1/kinstr", "lower"},
	}
	for _, d := range dramcache.Names() {
		ms = append(ms,
			layerMetric{"dramcache." + d + ".replay_ns_per_access", "ns", "lower"},
			layerMetric{"dramcache." + d + ".replay_allocs_per_access", "count", "lower"})
	}
	ms = append(ms, []layerMetric{
		{"dram.stacked_accesses_per_kinstr", "1/kinstr", "lower"},
		{"dram.offchip_accesses_per_kinstr", "1/kinstr", "lower"},
		{"dram.stacked_row_hit_rate", "ratio", "higher"},
		{"dram.offchip_row_hit_rate", "ratio", "higher"},
		{"dram.replay_ns_per_access", "ns", "lower"},
		{"dram.replay_allocs_per_access", "count", "lower"},
		{"runtime.allocs_per_below", "count", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"experiments.points_run", "count", "lower"},
		{"experiments.memo_hits", "count", "higher"},
		{"experiments.idle_frac", "ratio", "lower"},
		{"experiments.max_point_s", "s", "lower"},
		{"tracing_overhead_frac", "ratio", "lower"},
	}...)
	for _, l := range profileLayers {
		ms = append(ms, layerMetric{l + ".self_frac", "ratio", "lower"})
	}
	return ms
}

// traceOut is what a traced child reports: layer metrics it can compute on
// its own, plus the counts the parent needs to turn untraced host time
// into per-operation costs.
type traceOut struct {
	Layers    map[string]float64
	Events    float64 // engine events executed
	Below     float64 // accesses below the L3, reads and writes
	Mallocs   float64
	GCCycles  float64
	GCCPUFrac float64
	Spans     []span
}

// regReader reads registry values, remembering the first missing name.
type regReader struct {
	reg *obs.Registry
	err error
}

func (r *regReader) get(name string) float64 {
	v, ok := r.reg.Value(name)
	if !ok && r.err == nil {
		r.err = fmt.Errorf("registry has no metric %q", name)
	}
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// read fills the layer metrics from the program's counters and the
// per-layer replays.
func (tr *traceOut) read(w workload, jb job, reg *obs.Registry, ran ranInfo) error {
	L := map[string]float64{
		"runtime.gc_cpu_frac": tr.GCCPUFrac,
		"runtime.gc_cycles":   tr.GCCycles,
	}
	tr.Layers = L
	rd := &regReader{reg: reg}
	rw, res := w, ran.res
	if w.Sweep != "" {
		L["experiments.points_run"] = rd.get("runner_points_run_total")
		L["experiments.memo_hits"] = rd.get("runner_memo_hits_total")
		L["experiments.idle_frac"] = 1 - ratio(rd.get("runner_sim_wall_seconds"), ran.wallS*float64(sweepParallelism()))
		L["experiments.max_point_s"] = ran.runner.Metrics().MaxPointWall.Seconds()
		if rd.err != nil {
			return rd.err
		}
		// The sweep's replay uses mcf-alloy's stream and design, timed
		// at the gap the sweep's own mcf_r/alloy point measured.
		rw = workloads[0]
		var err error
		if res, err = ran.runner.Run(context.Background(), rw.Profile, rw.Design, core.PredDefault, 0); err != nil {
			return err
		}
	} else {
		kinstr := float64(res.Instructions) / 1000
		tr.Events = rd.get("sim_engine_events_total")
		reads := rd.get("below_reads_total")
		tr.Below = reads + rd.get("below_writes_total")
		L["sim.events_per_kinstr"] = ratio(tr.Events, kinstr)
		L["core.below_per_kinstr"] = ratio(tr.Below, kinstr)
		L["cache.l3_hit_rate"] = rd.get("l3_hit_rate")
		L["cache.l3_accesses_per_kinstr"] = ratio(rd.get("l3_hits_total")+rd.get("l3_misses_total"), kinstr)
		L["predictor.accuracy"] = rd.get("predictor_accuracy")
		L["predictor.wasted_probe_frac"] = ratio(rd.get("wasted_mem_reads_total"), reads)
		hits, whits := rd.get("dramcache_tags_hits_total"), rd.get("dramcache_tags_write_hits_total")
		accs := hits + rd.get("dramcache_tags_misses_total") - whits - rd.get("dramcache_tags_write_misses_total")
		L["dramcache.read_hit_rate"] = ratio(hits-whits, accs)
		L["dramcache.row_buffer_hit_rate"] = rd.get("dramcache_row_buffer_hit_rate")
		L["dramcache.accesses_per_kinstr"] = ratio(rd.get("dramcache_accesses_total"), kinstr)
		for _, dev := range []string{"stacked", "offchip"} {
			p := "dram_" + dev
			L["dram."+dev+"_accesses_per_kinstr"] = ratio(rd.get(p+"_reads_total")+rd.get(p+"_writes_total"), kinstr)
			L["dram."+dev+"_row_hit_rate"] = rd.get(p + "_row_hit_rate")
		}
		L["runtime.allocs_per_below"] = ratio(tr.Mallocs, tr.Below)
		if rd.err != nil {
			return rd.err
		}
	}
	gap := ratio(res.ExecCycles, float64(res.BelowReads+res.BelowWrites))
	return replay(rw, jb, gap, L, &tr.Spans)
}

// replayRefs is the length of the captured reference stream each layer
// replays.
const replayRefs = 1 << 18

// below is one access leaving the L3.
type below struct {
	PC    uint64
	Line  memaddr.Line
	Write bool
	Hit   bool // outcome in the workload's DRAM cache (reads only)
}

// l3Step routes one reference through an L3 the way core.System does
// (reads allocate, writes probe without allocating) and appends the
// accesses it sends below, a dirty victim before the miss that evicted it.
func l3Step(l3 *cache.Cache, ref trace.Ref, out []below) []below {
	if ref.Write {
		if !l3.Probe(ref.Line, true) {
			out = append(out, below{PC: ref.PC, Line: ref.Line, Write: true})
		}
		return out
	}
	hit, ev := l3.Access(ref.Line, false)
	if hit {
		return out
	}
	if ev.Valid && ev.Dirty {
		out = append(out, below{Line: ev.Line, Write: true})
	}
	return append(out, below{PC: ref.PC, Line: ref.Line})
}

// Sinks keep replayed calls from being optimized away.
var (
	sinkRef  trace.Ref
	sinkBool bool
)

// setBenchTime sets the per-replay time testing.Benchmark aims for.
func setBenchTime(d string) error {
	testing.Init()
	return flag.Set("test.benchtime", d)
}

// replay times each layer's public calls on a stream captured from the
// workload's profile and seed. now advances by gap cycles per below-L3
// access, the mean the workload itself measured.
func replay(w workload, jb job, gap float64, L map[string]float64, spans *[]span) error {
	if err := setBenchTime(jb.BenchTime); err != nil {
		return err
	}
	p := params(jb)
	cfg := core.DefaultConfig(w.Profile)
	prof, _ := trace.ByName(w.Profile)
	prof.GapMean *= p.GapScale
	newGen := func() trace.Generator { return prof.MustBuild(p.Seed, p.Scale, 0) }
	step := sim.Ticks(max(1, int(gap+0.5)))
	bench := func(name string, f func(b *testing.B)) (nsPerOp, allocsPerOp float64) {
		start := time.Now()
		r := testing.Benchmark(f)
		*spans = append(*spans, span{Name: "replay-" + name, Start: start, End: time.Now()})
		return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N)
	}

	gen := newGen()
	L["trace.replay_ns_per_ref"], _ = bench("trace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRef = gen.Next()
		}
	})

	refs := trace.Capture(newGen(), replayRefs)
	l3 := cache.MustNew(cache.Config{Sets: int(cfg.ScaledL3Bytes()) / memaddr.LineSizeBytes / cfg.L3Assoc, Assoc: cfg.L3Assoc, Policy: "dip"})
	var belows []below
	for _, ref := range refs { // the first pass warms the L3
		l3Step(l3, ref, nil)
	}
	for _, ref := range refs {
		belows = l3Step(l3, ref, belows)
	}
	if len(belows) == 0 {
		return fmt.Errorf("%s: replay stream never misses the L3", w.Name)
	}
	buf := make([]below, 0, 2)
	L["cache.replay_ns_per_access"], L["cache.replay_allocs_per_access"] = bench("cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = l3Step(l3, refs[i%len(refs)], buf[:0])
		}
	})

	// Each design replays the L3-miss stream once to warm, then is timed.
	var mine dramcache.Organization
	for _, name := range dramcache.Names() {
		org, err := dramcache.Build(name, dramcache.Params{
			CapacityBytes: p.CacheMB << 20 / p.Scale,
			Stacked:       dram.MustNew(dram.StackedConfig()),
			Seed:          dramcache.SeedFor(name, ""),
		})
		if err != nil {
			return err
		}
		var now dram.Cycle
		var r dramcache.AccessResult
		access := func(a *below) {
			org.AccessInto(now, a.Line, a.Write, &r)
			if r.Allocated {
				org.Fill(now, a.Line)
			}
			now += step
		}
		for i := range belows {
			access(&belows[i])
			if name == string(w.Design) {
				belows[i].Hit = r.Hit
			}
		}
		L["dramcache."+name+".replay_ns_per_access"], L["dramcache."+name+".replay_allocs_per_access"] = bench("dramcache-"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				access(&belows[i%len(belows)])
			}
		})
		if name == string(w.Design) {
			mine = org
		}
	}

	mem := dram.MustNew(dram.OffChipConfig())
	var now dram.Cycle
	var res dram.Result
	L["dram.replay_ns_per_access"], L["dram.replay_allocs_per_access"] = bench("dram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &belows[i%len(belows)]
			mem.AccessLineInto(now, a.Line, a.Write, &res)
			now += step
		}
	})

	var pred predictor.Predictor
	switch w.Predictor {
	case core.PredMAPI:
		pred = predictor.NewMAPI(p.Cores)
	case core.PredMissMap:
		pred = predictor.MissMap{Contains: mine.Contains}
	default:
		return fmt.Errorf("%s: no replay for predictor %q", w.Name, w.Predictor)
	}
	var reads []below
	for _, a := range belows {
		if !a.Write {
			reads = append(reads, a)
		}
	}
	L["predictor.replay_ns_per_call"], _ = bench("predictor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := &reads[i%len(reads)]
			sinkBool, _ = pred.Predict(0, a.PC, a.Line)
			pred.Update(0, a.PC, a.Line, a.Hit)
		}
	})
	return nil
}

// profileShares runs `go tool pprof -top` on a CPU profile and returns each
// layer's share of the flat samples (summing to 1) plus the cumulative
// share under core.(*System).warm.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	flat := map[string]float64{}
	var total, warm float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		fl, err1 := parseMS(f[0])
		cum, err2 := parseMS(f[3])
		if err1 != nil || err2 != nil {
			continue // the column header
		}
		if last := f[len(f)-1]; len(f) > 6 && strings.HasPrefix(last, "(") && strings.HasSuffix(last, "inline)") {
			f = f[:len(f)-1] // "(inline)" or "(partial-inline)"
		}
		fn := strings.Join(f[5:], " ")
		flat[layerOf(fn)] += fl
		total += fl
		if fn == "alloysim/internal/core.(*System).warm" {
			warm = cum
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof %s: no samples", path)
	}
	shares := map[string]float64{"core.warm_frac": warm / total}
	for _, l := range profileLayers {
		shares[l+".self_frac"] = flat[l] / total
	}
	return shares, nil
}

// parseMS reads a pprof value printed with -unit=ms ("12.50ms" or "0").
func parseMS(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may contain dots and slashes
	}
	pkg := fn
	if i := strings.IndexByte(fn[strings.LastIndexByte(fn, '/')+1:], '.'); i >= 0 {
		pkg = fn[:strings.LastIndexByte(fn, '/')+1+i]
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "alloysim/internal/policy":
		return "cache"
	case strings.HasPrefix(pkg, "alloysim/internal/"):
		name := strings.TrimPrefix(pkg, "alloysim/internal/")
		for _, l := range profileLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// ranInfo is what one repetition leaves for the traced run to read back.
type ranInfo struct {
	res    core.Result
	runner *experiments.Runner
	wallS  float64
}
