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

	"alloysim/internal/invariants"
	"alloysim/internal/sim"
	"alloysim/internal/trace"
)

// MemPort is the memory system as seen by a core: it services reads by
// reporting the data-arrival cycle and absorbs writes. Both read the
// reference in the core's own Core.ref and must not keep the pointer.
type MemPort interface {
	// Read issues a demand load at cycle now and returns the cycle the
	// data arrives (>= now). The memory system resolves the whole access
	// synchronously — timing-wise the future is computed now, and the
	// core accounts for its own completion at the returned cycle.
	Read(now sim.Cycle, core int, ref *trace.Ref) (done sim.Cycle)
	// Write issues a store at cycle now. Stores do not block retirement,
	// but a full downstream write buffer exerts backpressure: a non-zero
	// return tells the core not to issue further references before that
	// cycle (store-buffer stall).
	Write(now sim.Cycle, core int, ref *trace.Ref) (stallUntil sim.Cycle)
}

// Config sets the core's parameters.
type Config struct {
	IPC float64 // base retire rate for non-memory instructions (4-wide: 4.0)
	MLP int     // maximum overlapped outstanding reads, at most MaxMLP
}

// MaxMLP is the widest MLP window a core supports: a core keeps the
// completion of each outstanding read in a fixed array of this many slots.
const MaxMLP = 16

// DefaultConfig returns the paper's core: 4-wide, with a memory-level
// parallelism window of 2 outstanding reads — the effective MLP of the
// SPEC 2006 suite's memory-bound codes (pointer chases sustain 1-2).
func DefaultConfig() Config { return Config{IPC: 4, MLP: 2} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.IPC <= 0 {
		return fmt.Errorf("cpu: IPC must be positive, got %v", c.IPC)
	}
	if c.MLP <= 0 || c.MLP > MaxMLP {
		return fmt.Errorf("cpu: MLP must be in [1, %d], got %d", MaxMLP, c.MLP)
	}
	return nil
}

// Core is one trace-driven processor.
//
// A read's completion only decrements the outstanding count unless the
// core waits on it, so the core does not schedule it: it reserves the
// completion's engine event (sim.Engine.Reserve) and keeps it in res, and
// its next issue retires every reserved completion due by then, unfired.
// A core that stalls on its MLP window schedules only the earliest one,
// under its reserved sequence number, and a core whose budget is spent
// schedules all that remain; between engine quanta, Settle retires those
// due by the quantum's end. A completion that does more than count so
// fires under the number it would have had, every event that touches
// shared state fires in the same order, and the engine's Steps, Pending
// and Now read at each quantum boundary what they would if every
// completion were scheduled.
type Core struct {
	id     int
	cfg    Config
	gen    trace.Generator
	eng    *sim.Engine
	port   MemPort
	budget uint64 // instructions to retire

	retired     uint64
	outstanding int
	nres        int       // reserved completions held, in res[:nres]
	nextReady   sim.Cycle // earliest cycle the next ref may issue
	issueDone   bool      // trace exhausted (budget reached)
	stalled     bool      // waiting for an MLP slot
	finished    bool
	finishAt    sim.Cycle

	// Pre-bound engine handlers: scheduling these allocates nothing
	// (see sim.Handler). One issue event is pending at a time; complete
	// events may overlap up to MLP deep, but carry no per-event state.
	issueEv    issueEvent
	completeEv completeEvent

	// ref is the reference being issued: the memory port reads it in
	// place.
	ref trace.Ref

	// res[:nres] are the reserved completions of outstanding reads, in
	// no particular order; the other outstanding reads' completions are
	// scheduled.
	res [MaxMLP]reservation
}

// reservation is a read completion whose engine event is reserved: due at
// cycle at, under sequence number seq.
type reservation struct {
	at  sim.Cycle
	seq uint64
}

// issueEvent fires the core's next trace reference.
type issueEvent struct{ c *Core }

func (ev *issueEvent) Fire(now sim.Cycle) { ev.c.issue(now) }

// completeEvent retires one outstanding read.
type completeEvent struct{ c *Core }

func (ev *completeEvent) Fire(now sim.Cycle) { ev.c.readComplete(now) }

// New creates a core that will retire `instructions` instructions,
// consuming references from gen.
func New(id int, cfg Config, gen trace.Generator, eng *sim.Engine, port MemPort, instructions uint64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || eng == nil || port == nil {
		return nil, fmt.Errorf("cpu: nil generator, engine, or port")
	}
	c := &Core{id: id, cfg: cfg, gen: gen, eng: eng, port: port, budget: instructions}
	c.issueEv.c = c
	c.completeEv.c = c
	return c, nil
}

// Start schedules the core's first issue event.
func (c *Core) Start() {
	c.eng.ScheduleHandler(c.eng.Now(), &c.issueEv)
}

// FinishTime returns the cycle the core finished (valid once it has
// retired its budget and drained).
func (c *Core) FinishTime() sim.Cycle { return c.finishAt }

// Retired returns instructions retired so far.
func (c *Core) Retired() uint64 { return c.retired }

// issue processes one trace reference; it runs as an engine event.
//
//alloyvet:hotpath
func (c *Core) issue(now sim.Cycle) {
	// The core reserved each completion it holds before it scheduled (or
	// began inline) this issue, so those due by now fire first.
	c.retireDue(now)
	if c.retired >= c.budget {
		c.issueDone = true
		for _, r := range c.res[:c.nres] {
			c.eng.ScheduleReserved(r.at, r.seq, &c.completeEv)
		}
		c.nres = 0
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
		// Read may schedule events of its own; the completion's number
		// comes after theirs, as a completion scheduled here would.
		done := c.port.Read(now, c.id, ref)
		c.res[c.nres] = reservation{at: done, seq: c.eng.Reserve(done)}
		c.nres++
	}

	// Advance the fetch front by the instruction gap at base IPC.
	gapCycles := sim.Cycle(float64(ref.Gap)/c.cfg.IPC) + 1
	c.nextReady = now + gapCycles
	if writeStall > c.nextReady {
		c.nextReady = writeStall
	}

	if c.outstanding >= c.cfg.MLP {
		c.stalled = true
		c.scheduleEarliest() // the completion that frees a slot
		return
	}
	c.eng.ScheduleHandler(c.nextReady, &c.issueEv)
}

// retireDue retires, unfired, every reserved completion due at or before
// t: each only decrements the outstanding count.
//
//alloyvet:hotpath
func (c *Core) retireDue(t sim.Cycle) {
	for i := 0; i < c.nres; {
		if r := c.res[i]; r.at <= t {
			c.eng.Retire(r.at)
			c.outstanding--
			c.nres--
			c.res[i] = c.res[c.nres]
		} else {
			i++
		}
	}
}

// scheduleEarliest schedules the reserved completion that fires first, in
// (cycle, sequence) order, under its reserved number.
//
//alloyvet:hotpath
func (c *Core) scheduleEarliest() {
	k := 0
	for i := 1; i < c.nres; i++ {
		if r, e := c.res[i], c.res[k]; r.at < e.at || r.at == e.at && r.seq < e.seq {
			k = i
		}
	}
	r := c.res[k]
	c.nres--
	c.res[k] = c.res[c.nres]
	c.eng.ScheduleReserved(r.at, r.seq, &c.completeEv)
}

// Settle retires every reserved completion due at or before through, the
// limit the engine last ran to (sim.Engine.RunUntil), moving the clock to
// the latest of them. A System settles every core before it reads the
// engine between quanta.
func (c *Core) Settle(through sim.Cycle) {
	c.retireDue(through)
	if invariants.Enabled {
		c.checkSettled(through)
	}
}

// checkSettled asserts what Settle leaves: at most MLP reserved
// completions, all of them due after through and counted outstanding.
func (c *Core) checkSettled(through sim.Cycle) {
	if c.nres > c.cfg.MLP || c.nres > c.outstanding {
		invariants.Failf("cpu: core %d holds %d reserved completions, MLP %d, %d outstanding", c.id, c.nres, c.cfg.MLP, c.outstanding)
	}
	for _, r := range c.res[:c.nres] {
		if r.at <= through {
			invariants.Failf("cpu: core %d kept a completion due at %d after settling through %d", c.id, r.at, through)
		}
	}
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
			// The issue event would fire next: run it here. NoneDueNow
			// does not see reserved completions, but one due now belongs
			// to a core that is not stalled and only counts, and issue
			// retires this core's own first.
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
}
