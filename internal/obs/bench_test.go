package obs

import (
	"testing"
)

// TestHotPathZeroAllocs pins the zero-allocation contract of every
// method the simulator calls per event: tracer sampling, span recording,
// and breakdown recording — including through a nil (disabled) tracer.
func TestHotPathZeroAllocs(t *testing.T) {
	tr := NewTracer(2, 64)
	var off *Tracer

	cases := []struct {
		name string
		fn   func()
	}{
		{"Tracer.Sample", func() { tr.Sample() }},
		{"Tracer.Span", func() { tr.Span(1, SpanDCBank, 0, 7, 100, 10, true) }},
		{"Tracer.Record", func() { tr.Record(Breakdown{ReqID: 1, Total: 5, Other: 5}) }},
		{"nil.Sample", func() { off.Sample() }},
		{"nil.Span", func() { off.Span(1, SpanDCBank, 0, 7, 100, 10, true) }},
		{"nil.Record", func() { off.Record(Breakdown{ReqID: 1}) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkTracerDisabled measures the cost of a request lifecycle's
// worth of tracer calls when tracing is off (nil tracer): this must be
// a few predictable branches, nothing more.
func BenchmarkTracerDisabled(b *testing.B) {
	b.ReportAllocs()
	var tr *Tracer
	var sampled uint64
	for i := 0; i < b.N; i++ {
		id := tr.Sample()
		if id != 0 {
			sampled++
		}
		tr.Span(id, SpanRead, 0, uint64(i), uint64(i), 100, false)
		tr.Record(Breakdown{ReqID: id})
	}
	if sampled != 0 {
		b.Fatal("disabled tracer sampled a request")
	}
}

// BenchmarkTracerSampling measures the full recording path at a 1-in-64
// sampling rate, the shape of a real traced run.
func BenchmarkTracerSampling(b *testing.B) {
	b.ReportAllocs()
	tr := NewTracer(64, 1<<12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.Sample()
		if id == 0 {
			continue
		}
		u := uint64(i)
		tr.Span(id, SpanRead, 0, u, u, 120, false)
		tr.Span(id, SpanDCBank, 0, u, u+10, 30, false)
		tr.Record(Breakdown{ReqID: id, Total: 120, CacheBank: 30, Other: 90})
	}
}
