package cpu

import (
	"testing"

	"alloysim/internal/memaddr"
	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// eagerCore is the core as it was before it reserved completions: it
// schedules every read's completion through the engine. It stays as the
// reference the Core must match event for event (TestCoreMatchesEager).
type eagerCore struct {
	id     int
	cfg    Config
	gen    trace.Generator
	eng    *sim.Engine
	port   MemPort
	budget uint64

	retired     uint64
	outstanding int
	nextReady   sim.Cycle
	issueDone   bool
	stalled     bool
	finished    bool
	finishAt    sim.Cycle

	ref        trace.Ref
	issueEv    eagerIssue
	completeEv eagerComplete
}

type eagerIssue struct{ c *eagerCore }

func (ev *eagerIssue) Fire(now sim.Cycle) { ev.c.issue(now) }

type eagerComplete struct{ c *eagerCore }

func (ev *eagerComplete) Fire(now sim.Cycle) { ev.c.readComplete(now) }

func newEager(id int, cfg Config, gen trace.Generator, eng *sim.Engine, port MemPort, instructions uint64) *eagerCore {
	c := &eagerCore{id: id, cfg: cfg, gen: gen, eng: eng, port: port, budget: instructions}
	c.issueEv.c = c
	c.completeEv.c = c
	return c
}

func (c *eagerCore) start() { c.eng.ScheduleHandler(c.eng.Now(), &c.issueEv) }

func (c *eagerCore) issue(now sim.Cycle) {
	if c.retired >= c.budget {
		c.issueDone = true
		c.maybeFinish(now)
		return
	}
	c.ref = c.gen.Next()
	ref := &c.ref
	c.retired += uint64(ref.Gap) + 1
	var writeStall sim.Cycle
	if ref.Write {
		writeStall = c.port.Write(now, c.id, ref)
	} else {
		c.outstanding++
		done := c.port.Read(now, c.id, ref)
		c.eng.ScheduleHandler(done, &c.completeEv)
	}
	gapCycles := sim.Cycle(float64(ref.Gap)/c.cfg.IPC) + 1
	c.nextReady = now + gapCycles
	if writeStall > c.nextReady {
		c.nextReady = writeStall
	}
	if c.outstanding >= c.cfg.MLP {
		c.stalled = true
		return
	}
	c.eng.ScheduleHandler(c.nextReady, &c.issueEv)
}

func (c *eagerCore) readComplete(now sim.Cycle) {
	c.outstanding--
	if c.stalled && c.outstanding < c.cfg.MLP {
		c.stalled = false
		if c.nextReady <= now && c.eng.NoneDueNow() {
			c.eng.StepInline()
			c.issue(now)
		} else {
			c.eng.ScheduleHandler(max(c.nextReady, now), &c.issueEv)
		}
	}
	c.maybeFinish(now)
}

func (c *eagerCore) maybeFinish(now sim.Cycle) {
	if c.finished || !c.issueDone || c.outstanding > 0 {
		return
	}
	c.finished = true
	c.finishAt = now
}

// portCall is one memory-port call, or one fill event firing, as
// gridPort logs it.
type portCall struct {
	at    sim.Cycle
	core  int
	line  memaddr.Line
	write bool
	fill  bool
}

// gridPort services every call with a latency drawn from an RNG seeded by
// the calling core and the call's index among that core's calls, so two
// runs that make the same calls see the same latencies. Reads complete on
// an 8-cycle grid, so completions of different cores often share a cycle,
// and one in 64 lands beyond the engine's wheel. One read in four also
// schedules a fill event at its completion cycle, as a DRAM-cache miss
// does, which logs when it fires; one write in five stalls its core until
// a grid cycle.
type gridPort struct {
	eng   *sim.Engine
	calls [8]uint64
	log   []portCall
}

func (p *gridPort) draw(core int) uint64 {
	p.calls[core]++
	x := uint64(core)<<40 ^ p.calls[core] + 0x9e3779b97f4a7c15 // splitmix64
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func (p *gridPort) Read(now sim.Cycle, core int, ref *trace.Ref) sim.Cycle {
	r := p.draw(core)
	p.log = append(p.log, portCall{at: now, core: core, line: ref.Line})
	grid := now/8 + 1 + sim.Ticks(int(r%24))
	if r>>8%64 == 0 {
		grid += sim.WheelSpan / 8
	}
	done := grid * 8
	if r>>16%4 == 0 {
		p.eng.ScheduleHandler(done, &fillLog{p: p, core: core, line: ref.Line})
	}
	return done
}

func (p *gridPort) Write(now sim.Cycle, core int, ref *trace.Ref) sim.Cycle {
	r := p.draw(core)
	p.log = append(p.log, portCall{at: now, core: core, line: ref.Line, write: true})
	if r%5 == 0 {
		return (now/8 + 1 + sim.Ticks(int(r>>8%8))) * 8
	}
	return 0
}

// fillLog is a fill event: it touches no core, and logs when it fires.
type fillLog struct {
	p    *gridPort
	core int
	line memaddr.Line
}

func (f *fillLog) Fire(now sim.Cycle) {
	f.p.log = append(f.p.log, portCall{at: now, core: f.core, line: f.line, fill: true})
}

// TestCoreMatchesEager runs 8 reserving cores and 8 eager ones on two
// engines through gridPorts and requires the same port calls and fills in
// the same order, the same Steps, Pending and Now after every RunUntil
// quantum once the reserving cores settle, and the same finish times.
func TestCoreMatchesEager(t *testing.T) {
	const cores, budget, quantum = 8, 12_000, 97
	for _, mlp := range []int{1, 2, 3, 8} {
		cfg := Config{IPC: 4, MLP: mlp}
		engE, engR := sim.NewEngine(), sim.NewEngine()
		portE, portR := &gridPort{eng: engE}, &gridPort{eng: engR}
		var eager [cores]*eagerCore
		var reserving [cores]*Core
		for i := range reserving {
			gen := func() trace.Generator { return testProfile(0.3, 6).MustBuild(uint64(i+1), 1, 0) }
			eager[i] = newEager(i, cfg, gen(), engE, portE, budget)
			c, err := New(i, cfg, gen(), engR, portR, budget)
			if err != nil {
				t.Fatal(err)
			}
			reserving[i] = c
			eager[i].start()
			c.Start()
		}
		for limit, q := sim.Cycle(quantum), 0; ; limit, q = limit+quantum, q+1 {
			drainedE, drainedR := engE.RunUntil(limit), engR.RunUntil(limit)
			for _, c := range reserving {
				c.Settle(limit)
			}
			if drainedE != drainedR || engE.Steps() != engR.Steps() || engE.Pending() != engR.Pending() || engE.Now() != engR.Now() {
				t.Fatalf("MLP %d quantum %d: eager drained %v Steps %d Pending %d Now %d, reserving %v %d %d %d", mlp, q,
					drainedE, engE.Steps(), engE.Pending(), engE.Now(), drainedR, engR.Steps(), engR.Pending(), engR.Now())
			}
			if drainedE {
				break
			}
		}
		for i, e := range portE.log {
			if i >= len(portR.log) || portR.log[i] != e {
				t.Fatalf("MLP %d: call %d eager %+v, reserving %+v", mlp, i, e, portR.log[min(i, len(portR.log)-1)])
			}
		}
		if len(portR.log) != len(portE.log) {
			t.Fatalf("MLP %d: reserving made %d calls, eager %d", mlp, len(portR.log), len(portE.log))
		}
		for i, c := range reserving {
			if !c.finished || !eager[i].finished || c.FinishTime() != eager[i].finishAt {
				t.Fatalf("MLP %d core %d: finished %v at %d, eager %v at %d", mlp, i, c.finished, c.FinishTime(), eager[i].finished, eager[i].finishAt)
			}
		}
	}
}

// TestNewAllocatesOnce: a core is one allocation, its reservation slots
// included.
func TestNewAllocatesOnce(t *testing.T) {
	eng := sim.NewEngine()
	gen := testProfile(0, 5).MustBuild(1, 1, 0)
	port := &fakePort{}
	n := testing.AllocsPerRun(100, func() {
		if _, err := New(0, DefaultConfig(), gen, eng, port, 10); err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Fatalf("New allocated %.0f times, want 1", n)
	}
}
