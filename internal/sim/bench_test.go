package sim

// Engine micro-benchmarks: the numbers behind BENCH_sim.json's sim section
// (see scripts/bench.sh). Every benchmark must report 0 allocs/op — that
// is the engine's steady-state zero-allocation contract.

import (
	"testing"

	"alloysim/internal/obs"
	"alloysim/internal/stats"
)

type benchHandler struct{ fired uint64 }

func (h *benchHandler) Fire(now Cycle) { h.fired++ }

// meteredBenchHandler is benchHandler with the observability layer in its
// "enabled but quiet" configuration: an exported stats counter increments
// on every fire, and a disabled (nil) tracer is offered each event.
type meteredBenchHandler struct {
	fired stats.Counter
	trc   *obs.Tracer // nil: sampling off, all methods no-ops
}

func (h *meteredBenchHandler) Fire(now Cycle) {
	h.fired.Inc()
	if tid := h.trc.Sample(); tid != 0 {
		h.trc.Span(tid, obs.SpanRead, 0, 0, now.Count(), 1, false)
	}
}

// BenchmarkScheduleHandler is the canonical hot path: schedule a pre-bound
// handler a few cycles out and fire it. Steady state must be 0 allocs/op.
func BenchmarkScheduleHandler(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	e.ScheduleHandler(1, h)
	e.Run() // prime the wheel and pool before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(e.Now()+3, h)
		e.Step()
	}
}

// BenchmarkScheduleReserved is a core's read path: reserve a completion,
// schedule the next issue at its cycle, then schedule the completion under
// its older number, which goes ahead of the issue in their bucket, and
// fire both; a second reservation retires unfired. Steady state must be
// 0 allocs/op.
func BenchmarkScheduleReserved(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	e.ScheduleHandler(1, h)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := e.Now() + 3
		seq := e.Reserve(at)
		e.ScheduleHandler(at, h)
		e.ScheduleReserved(at, seq, h)
		e.Reserve(e.Now())
		e.Retire(e.Now())
		e.Step()
		e.Step()
	}
}

// BenchmarkScheduleHandlerDeep keeps a deep pending queue (256 events
// spread over the wheel) the way a loaded memory system does.
func BenchmarkScheduleHandlerDeep(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	const depth = 256
	for i := 0; i < depth; i++ {
		e.ScheduleHandler(e.Now()+Cycle(1+i*7%1000), h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(e.Now()+Cycle(1+i%1000), h)
		e.Step()
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkScheduleHandlerFar exercises the far-heap fallback and its
// cascade into the wheel.
func BenchmarkScheduleHandlerFar(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	e.ScheduleHandler(WheelSpan+1, h)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleHandler(e.Now()+WheelSpan+50, h)
		e.Step()
	}
}

// BenchmarkEngineMixed interleaves near, far, and same-cycle scheduling at
// a 4:1:1 ratio, resembling the simulator's real event mix.
func BenchmarkEngineMixed(b *testing.B) {
	e := NewEngine()
	h := &benchHandler{}
	e.ScheduleHandler(WheelSpan+1, h)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 6 {
		case 0:
			e.ScheduleHandler(e.Now()+WheelSpan+100, h)
		case 1:
			e.ScheduleHandler(e.Now(), h)
		default:
			e.ScheduleHandler(e.Now()+Cycle(1+i%200), h)
		}
		e.Step()
	}
	b.StopTimer()
	e.Run()
}

// BenchmarkEngineMixedMetricsOn repeats the mixed blend with metrics
// enabled and tracing attached-but-disabled. The CI guard holds it at
// 0 allocs/op and within 3% of BenchmarkEngineMixed: the observability
// layer's zero-overhead-when-off contract, measured.
func BenchmarkEngineMixedMetricsOn(b *testing.B) {
	e := NewEngine()
	h := &meteredBenchHandler{}
	e.ScheduleHandler(WheelSpan+1, h)
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 6 {
		case 0:
			e.ScheduleHandler(e.Now()+WheelSpan+100, h)
		case 1:
			e.ScheduleHandler(e.Now(), h)
		default:
			e.ScheduleHandler(e.Now()+Cycle(1+i%200), h)
		}
		e.Step()
	}
	b.StopTimer()
	e.Run()
}
