package core

import (
	"alloysim/internal/cache"
	"alloysim/internal/cpu"
	"alloysim/internal/trace"
)

// directSource is a core's front-end: the trace generator plus the private
// L2. It computes each FrontRef inline when the core asks for it. The
// front-end never observes simulated time, so the stream is a pure
// function of the core's seed.
type directSource struct {
	gen trace.Generator
	l2  *cache.Cache // nil when the configuration has no private L2
}

// NextRef implements cpu.RefSource: it advances the trace generator by one
// reference, then the private L2 when there is one, and writes the record
// into fr, the core's own in the measured phase and one reused record in
// warmup, so the 40-byte FrontRef is never returned and copied.
//
//alloyvet:hotpath
func (d *directSource) NextRef(fr *cpu.FrontRef) {
	ref := d.gen.Next()
	*fr = cpu.FrontRef{Line: ref.Line, PC: ref.PC, Gap: ref.Gap, Write: ref.Write}
	if d.l2 == nil {
		return
	}
	if ref.Write {
		// Stores probe the L2 (no allocate on write miss).
		fr.L2Hit = d.l2.Probe(ref.Line, true)
		return
	}
	hit, ev := d.l2.Access(ref.Line, false)
	fr.L2Hit = hit
	if ev.Valid && ev.Dirty {
		fr.L2WB = true
		fr.Victim = ev.Line
	}
}
