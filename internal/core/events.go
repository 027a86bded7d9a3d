package core

import (
	"alloysim/internal/cache"
	"alloysim/internal/memaddr"
	"alloysim/internal/obs"
	"alloysim/internal/sim"
)

// The fill path is the only place the system schedules future work through
// the engine, and it runs once per DRAM-cache read miss — squarely in the
// measured loop. Instead of capturing the line and victim in a fresh
// closure per miss, the events are reusable structs drawn from per-System
// freelists: the engine's node pool plus these pools make the whole path
// allocation-free in steady state. Pools are single-threaded, like the
// engine that fires them.

// fillEvent installs a line into the DRAM cache when its memory response
// arrives, then schedules the dirty victim's writeback off the critical
// path.
type fillEvent struct {
	s      *System
	line   memaddr.Line
	victim cache.Eviction
	tid    uint64 // obs trace ID of the read that missed; 0 when untraced
	core   int32
	next   *fillEvent
}

// Fire implements sim.Handler.
func (f *fillEvent) Fire(now sim.Cycle) {
	s := f.s
	done := s.org.Fill(now, f.line)
	if f.tid != 0 {
		s.trc.Span(f.tid, obs.SpanFill, f.core, uint64(f.line), now.Count(), cyclesBetween(now, done), false)
	}
	if f.victim.Valid && f.victim.Dirty {
		s.scheduleWriteback(done, f.victim.Line)
	}
	f.next = s.fillFree
	s.fillFree = f
}

// writebackEvent writes a dirty DRAM-cache victim to off-chip memory.
type writebackEvent struct {
	s    *System
	line memaddr.Line
	next *writebackEvent
}

// Fire implements sim.Handler.
func (w *writebackEvent) Fire(now sim.Cycle) {
	s := w.s
	s.mem.AccessLine(now, w.line, true)
	w.next = s.wbFree
	s.wbFree = w
}

// scheduleFill enqueues a pooled fill event at the data-arrival cycle.
// tid/core carry the missing read's trace identity into the fill span.
func (s *System) scheduleFill(at sim.Cycle, line memaddr.Line, victim cache.Eviction, tid uint64, core int32) {
	f := s.fillFree
	if f == nil {
		f = &fillEvent{s: s}
	} else {
		s.fillFree = f.next
	}
	f.line, f.victim = line, victim
	f.tid, f.core = tid, core
	s.eng.ScheduleHandler(at, f)
}

// scheduleWriteback enqueues a pooled victim-writeback event.
func (s *System) scheduleWriteback(at sim.Cycle, line memaddr.Line) {
	w := s.wbFree
	if w == nil {
		w = &writebackEvent{s: s}
	} else {
		s.wbFree = w.next
	}
	w.line = line
	s.eng.ScheduleHandler(at, w)
}
