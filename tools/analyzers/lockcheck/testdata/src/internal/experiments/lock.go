// Package experiments is a golden fixture for the lockcheck analyzer.
package experiments

import (
	"sync"
	"time"
)

// counter exercises annotation coverage: unannotated fields of a
// mutex-bearing struct are flagged; guarded, owned, and sync-typed fields
// are not.
type counter struct {
	mu   sync.Mutex
	wg   sync.WaitGroup // sync-typed: self-synchronizing, exempt
	n    int            // want `field n of mutex-bearing struct counter needs`
	hits int            //alloyvet:guard mu
	name string         //alloyvet:owner newCounter; immutable
}

// misguided names a mutex that does not exist.
type misguided struct {
	mu sync.Mutex
	n  int //alloyvet:guard lock // want `misguided has no mutex field named lock`
}

// Add is the clean shape: defer pairing, guarded access under the lock.
func (c *counter) Add() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits++
}

// Peek reads the guarded field without the lock.
func (c *counter) Peek() int {
	return c.hits // want `read of c\.hits without holding c\.mu`
}

// Leak has a return path that keeps the lock.
func (c *counter) Leak(b bool) {
	c.mu.Lock() // want `c\.mu locked here is not released on every return path`
	if b {
		return
	}
	c.mu.Unlock()
}

// Double acquires the same mutex twice on one path.
func (c *counter) Double() {
	c.mu.Lock()
	c.mu.Lock() // want `c\.mu is already locked on this path`
	c.mu.Unlock()
}

// SendHeld sends on a channel with the lock held.
func (c *counter) SendHeld(ch chan int) {
	c.mu.Lock()
	ch <- 1 // want `c\.mu is held across a channel send`
	c.mu.Unlock()
}

// SelectHeld holds the lock across a select.
func (c *counter) SelectHeld(a, b chan int) {
	c.mu.Lock()
	select { // want `c\.mu is held across this select`
	case <-a:
	case <-b:
	}
	c.mu.Unlock()
}

// SleepHeld extends the critical section by a wall-clock sleep.
func (c *counter) SleepHeld() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want `c\.mu is held across time\.Sleep`
	c.mu.Unlock()
}

// CallbackHeld invokes a caller-supplied function under the lock.
func (c *counter) CallbackHeld(f func()) {
	c.mu.Lock()
	f() // want `c\.mu is held across a dynamic call`
	c.mu.Unlock()
}

// ErrHeld is clean: error.Error is non-blocking by contract.
func (c *counter) ErrHeld(err error) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return err.Error()
}

// SendAllowed documents a justified send under the lock.
func (c *counter) SendAllowed(ch chan int) {
	c.mu.Lock()
	ch <- 1 //alloyvet:allow(lockcheck) capacity reserved by the caller; cannot block
	c.mu.Unlock()
}

// gauge exercises RWMutex read/write modes.
type gauge struct {
	mu  sync.RWMutex
	val int //alloyvet:guard mu
}

// Read is clean: read access under the read lock.
func (g *gauge) Read() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.val
}

// Bump writes the guarded field under only a read lock.
func (g *gauge) Bump() {
	g.mu.RLock()
	g.val++ // want `write to g\.val while g\.mu is only read-locked`
	g.mu.RUnlock()
}

// Mismatch write-locks but read-unlocks.
func (g *gauge) Mismatch() {
	g.mu.Lock()
	g.mu.RUnlock() // want `RUnlock of g\.mu which was write-locked`
}

// Unheld unlocks a mutex it never locked.
func (g *gauge) Unheld() {
	g.mu.Unlock() // want `g\.mu is not held on every path reaching this unlock`
}

// bumpLocked is exempt by the Locked-suffix convention: the caller holds
// the lock.
func (g *gauge) bumpLocked() {
	g.val++
}

// fresh constructs a local gauge: guard checks do not apply before the
// value is published.
func fresh() *gauge {
	g := &gauge{}
	g.val = 1
	g.bumpLocked()
	return g
}
