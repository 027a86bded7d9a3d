// Package cpu models the processor cores driving the memory system: a
// trace-driven core that fetches references at a base IPC, overlaps up to
// MLP outstanding reads (memory-level parallelism of a 4-wide out-of-order
// window), and stalls when the window fills. Stores are fire-and-forget.
//
// The model deliberately omits non-memory microarchitecture: the paper's
// conclusions are driven entirely by the memory system, and what the core
// must contribute is latency sensitivity — longer DRAM-cache hit latency
// must translate into longer execution time, moderated by the amount of
// memory-level parallelism. That is exactly what this model produces.
package cpu

import (
	"fmt"

	"alloysim/internal/memaddr"
	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// FrontRef is one reference record emitted by a core's front-end: the
// trace reference plus the private-L2 outcome. The front-end (trace
// generation and the private L2) is timing-independent: its state is a
// pure function of the core's own reference stream, never of simulated
// time, so warmup can consume the same stream with the clock stopped.
type FrontRef struct {
	Line   memaddr.Line // referenced line
	PC     uint64       // address of the memory instruction
	Victim memaddr.Line // dirty private-L2 victim (valid when L2WB)
	Gap    uint32       // non-memory instructions since the previous ref
	Write  bool
	L2Hit  bool // the private L2 serviced this reference
	L2WB   bool // the L2 fill evicted a dirty victim needing writeback
}

// RefSource produces a core's infinite FrontRef stream.
type RefSource interface {
	NextRef() FrontRef
}

// genSource adapts a bare trace.Generator into a RefSource with no
// private L2: every record misses.
type genSource struct{ gen trace.Generator }

func (s genSource) NextRef() FrontRef {
	ref := s.gen.Next()
	return FrontRef{Line: ref.Line, PC: ref.PC, Gap: ref.Gap, Write: ref.Write}
}

// SourceFromGenerator wraps a trace generator as a RefSource for systems
// without private L2s. A nil generator yields a nil source.
func SourceFromGenerator(gen trace.Generator) RefSource {
	if gen == nil {
		return nil
	}
	return genSource{gen: gen}
}

// MemPort is the memory system as seen by a core: it services reads by
// reporting the data-arrival cycle and absorbs writes.
type MemPort interface {
	// Read issues a demand load at cycle now and returns the cycle the
	// data arrives (>= now). The memory system resolves the whole access
	// synchronously — timing-wise the future is computed now, and the
	// core schedules its own completion event at the returned cycle.
	Read(now sim.Cycle, core int, ref FrontRef) (done sim.Cycle)
	// Write issues a store at cycle now. Stores do not block retirement,
	// but a full downstream write buffer exerts backpressure: a non-zero
	// return tells the core not to issue further references before that
	// cycle (store-buffer stall).
	Write(now sim.Cycle, core int, ref FrontRef) (stallUntil sim.Cycle)
}

// Config sets the core's parameters.
type Config struct {
	IPC float64 // base retire rate for non-memory instructions (4-wide: 4.0)
	MLP int     // maximum overlapped outstanding reads
}

// DefaultConfig returns the paper's core: 4-wide, with a memory-level
// parallelism window of 2 outstanding reads — the effective MLP of the
// SPEC 2006 suite's memory-bound codes (pointer chases sustain 1-2).
func DefaultConfig() Config { return Config{IPC: 4, MLP: 2} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IPC <= 0 {
		return fmt.Errorf("cpu: IPC must be positive, got %v", c.IPC)
	}
	if c.MLP <= 0 {
		return fmt.Errorf("cpu: MLP must be positive, got %d", c.MLP)
	}
	return nil
}

// Core is one trace-driven processor.
type Core struct {
	id     int
	cfg    Config
	src    RefSource
	eng    *sim.Engine
	port   MemPort
	budget uint64 // instructions to retire

	retired     uint64
	outstanding int
	nextReady   sim.Cycle // earliest cycle the next ref may issue
	issueDone   bool      // trace exhausted (budget reached)
	stalled     bool      // waiting for an MLP slot
	finished    bool
	finishAt    sim.Cycle

	reads, writes uint64
	onFinish      func(*Core)

	// Pre-bound engine handlers: scheduling these allocates nothing
	// (see sim.Handler). One issue event is pending at a time; complete
	// events may overlap up to MLP deep, but carry no per-event state.
	issueEv    issueEvent
	completeEv completeEvent
}

// issueEvent fires the core's next trace reference.
type issueEvent struct{ c *Core }

func (ev *issueEvent) Fire(now sim.Cycle) { ev.c.issue(now) }

// completeEvent retires one outstanding read.
type completeEvent struct{ c *Core }

func (ev *completeEvent) Fire(now sim.Cycle) { ev.c.readComplete(now) }

// New creates a core that will retire `instructions` instructions,
// consuming references from src.
func New(id int, cfg Config, src RefSource, eng *sim.Engine, port MemPort, instructions uint64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil || eng == nil || port == nil {
		return nil, fmt.Errorf("cpu: nil reference source, engine, or port")
	}
	c := &Core{id: id, cfg: cfg, src: src, eng: eng, port: port, budget: instructions}
	c.issueEv.c = c
	c.completeEv.c = c
	return c, nil
}

// OnFinish registers a callback invoked when the core retires its budget
// and drains all outstanding reads.
func (c *Core) OnFinish(f func(*Core)) { c.onFinish = f }

// Start schedules the core's first issue event.
func (c *Core) Start() {
	c.eng.ScheduleHandler(c.eng.Now(), &c.issueEv)
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Finished reports whether the core has retired its budget and drained.
func (c *Core) Finished() bool { return c.finished }

// FinishTime returns the cycle the core finished (valid once Finished).
func (c *Core) FinishTime() sim.Cycle { return c.finishAt }

// Retired returns instructions retired so far.
func (c *Core) Retired() uint64 { return c.retired }

// Reads returns demand loads issued.
func (c *Core) Reads() uint64 { return c.reads }

// Writes returns stores issued.
func (c *Core) Writes() uint64 { return c.writes }

// issue processes one trace reference; it runs as an engine event.
//
//alloyvet:hotpath
func (c *Core) issue(now sim.Cycle) {
	if c.retired >= c.budget {
		c.issueDone = true
		c.maybeFinish(now)
		return
	}

	ref := c.src.NextRef()
	c.retired += uint64(ref.Gap) + 1

	var writeStall sim.Cycle
	if ref.Write {
		c.writes++
		writeStall = c.port.Write(now, c.id, ref)
	} else {
		c.reads++
		c.outstanding++
		done := c.port.Read(now, c.id, ref)
		c.eng.ScheduleHandler(done, &c.completeEv)
	}

	// Advance the fetch front by the instruction gap at base IPC.
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

// readComplete runs at a load's data-arrival cycle.
//
//alloyvet:hotpath
func (c *Core) readComplete(now sim.Cycle) {
	c.outstanding--
	if c.outstanding < 0 {
		panicNegative(c.id)
	}
	if c.stalled && c.outstanding < c.cfg.MLP {
		c.stalled = false
		if c.nextReady <= now && c.eng.NoneDueNow() {
			// The issue event would fire next: run it here.
			c.eng.StepInline()
			c.issue(now)
		} else {
			c.eng.ScheduleHandler(max(c.nextReady, now), &c.issueEv)
		}
	}
	// A core that un-stalls has not reached its budget, so this finishes
	// only a core whose last read just drained.
	c.maybeFinish(now)
}

// panicNegative reports an accounting bug: a completion without an
// outstanding read. Kept out of line so readComplete does not allocate.
//
//go:noinline
func panicNegative(id int) {
	panic(fmt.Sprintf("cpu: core %d outstanding went negative", id))
}

func (c *Core) maybeFinish(now sim.Cycle) {
	if c.finished || !c.issueDone || c.outstanding > 0 {
		return
	}
	c.finished = true
	c.finishAt = now
	if c.onFinish != nil {
		c.onFinish(c)
	}
}
