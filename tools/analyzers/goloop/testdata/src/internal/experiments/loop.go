// Package experiments is a golden fixture for the goloop analyzer.
package experiments

import "sync"

func work() error { return nil }

// leak starts a goroutine nothing joins or audits.
func leak(ch chan int) {
	go func() { // want `go statement without a tracked lifecycle`
		ch <- 1
		ch <- 2
	}()
}

// joined is tracked by the wg.Add preceding the go statement.
func joined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// oneShot is tracked: a single-send body is a join handle by construction.
func oneShot() chan error {
	errc := make(chan error, 1)
	go func() { errc <- work() }()
	return errc
}

// closer is tracked: the goroutine signals exit by closing its done channel.
func closer() chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		work()
	}()
	return done
}

// audited is fire-and-forget with an adjacent justification.
func audited() {
	//alloyvet:detached best-effort flush; bounded by process exit
	go func() {
		work()
		work()
	}()
}

// namedTracked resolves the named same-package body and finds the Done.
func namedTracked(wg *sync.WaitGroup) {
	go worker(wg)
}

func worker(wg *sync.WaitGroup) {
	defer wg.Done()
	work()
}

// namedLeak runs a named body with no join signal.
func namedLeak() {
	go spin() // want `go statement without a tracked lifecycle`
}

func spin() {
	for i := 0; i < 1000; i++ {
		work()
	}
}

// staleDetached carries an annotation adjacent to no go statement.
func staleDetached() {
	//alloyvet:detached nothing to see // want `stale //alloyvet:detached: no go statement on this or the next line`
	work()
}
