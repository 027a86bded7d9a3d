package cpu

import (
	"math"
	"testing"

	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// fixedPort answers every read after a fixed latency and never stalls a
// write; it only counts the references it sees, so it allocates nothing.
type fixedPort struct {
	latency sim.Cycle
	refs    uint64
}

func (p *fixedPort) Read(now sim.Cycle, core int, ref *trace.Ref) sim.Cycle {
	p.refs++
	return now + p.latency
}

func (p *fixedPort) Write(now sim.Cycle, core int, ref *trace.Ref) sim.Cycle {
	p.refs++
	return 0
}

// BenchmarkIssue times a core's reference path: one core reads the gobmk_r
// profile's generator at the default 1/64 scale against a fixedPort. One
// op is one reference, so ns/op is the host time per reference: the
// generator's Next, the port call, the completion's reservation and its
// retirement or event, and the next issue's event. Steady state must be
// 0 allocs/op.
func BenchmarkIssue(b *testing.B) {
	prof, _ := trace.ByName("gobmk_r")
	eng := sim.NewEngine()
	port := &fixedPort{latency: 200}
	c, err := New(0, DefaultConfig(), prof.MustBuild(1, 64, 0), eng, port, math.MaxUint64)
	if err != nil {
		b.Fatal(err)
	}
	c.Start()
	for port.refs < 4096 { // prime the engine's wheel and event pool
		eng.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for end := port.refs + uint64(b.N); port.refs < end; {
		eng.Step()
	}
}
