// Package sim is golden testdata: its import path ends in internal/sim,
// so it sits inside the confinement cone and every concurrency construct
// must be flagged.
package sim

import (
	"sync"
	"sync/atomic"
)

type Cycle uint64

// Engine stands in for model state that must stay single-threaded.
type Engine struct {
	now     Cycle
	mu      sync.Mutex    // want `sync.Mutex in the timing-model cone`
	pending atomic.Uint64 // want `atomic.Uint64 in the timing-model cone`
	feed    chan Cycle    // want `channel type in the timing-model cone`
}

func (e *Engine) Step() Cycle {
	e.mu.Lock() // want `sync.Lock in the timing-model cone`
	e.now++
	e.mu.Unlock() // want `sync.Unlock in the timing-model cone`
	return e.now
}

func (e *Engine) Loaded() uint64 {
	return e.pending.Load() // want `atomic.Load in the timing-model cone`
}

func (e *Engine) SpawnWorker() {
	go func() { // want `go statement in the timing-model cone`
		e.Step()
	}()
}

func (e *Engine) Publish(c Cycle) {
	select { // want `select statement in the timing-model cone`
	case e.feed <- c: // want `channel send in the timing-model cone`
	default:
	}
}

func Drain(in <-chan Cycle) Cycle { // want `channel type in the timing-model cone`
	var last Cycle
	for c := range in {
		last = c
	}
	return last
}

// MakeFeed shows that the shared per-line allow grammar still suppresses
// a confine finding.
func MakeFeed() chan Cycle { //alloyvet:allow(confine) golden case for the per-line form
	return make(chan Cycle, 1) //alloyvet:allow(confine) golden case for the per-line form
}

// PureStep is ordinary sequential model code: never flagged.
func PureStep(c Cycle) Cycle {
	return c + 1
}
