// Package experiments is a golden fixture for the ctxflow analyzer.
package experiments

import (
	"context"
	"net"
	"sync"
	"time"
)

// sleeper bears a context yet sleeps on the wall clock.
func sleeper(ctx context.Context, d time.Duration) {
	time.Sleep(d) // want `time\.Sleep blocks without consulting ctx`
	<-ctx.Done()
}

// mint detaches itself from its caller's cancellation.
func mint() context.Context {
	return context.Background() // want `context\.Background mints a context detached from the caller's cancellation`
}

// todo is the same ban under the other constructor.
func todo() context.Context {
	return context.TODO() // want `context\.TODO mints a context detached from the caller's cancellation`
}

// sendBlind sends outside any select.
func sendBlind(ctx context.Context, ch chan int) {
	ch <- 1 // want `channel send outside a select with ctx\.Done\(\)`
	_ = ctx
}

// sendGuarded is the clean shape: the send races cancellation.
func sendGuarded(ctx context.Context, ch chan int) {
	select {
	case ch <- 1:
	case <-ctx.Done():
	}
}

// recvBlind receives outside any select.
func recvBlind(ctx context.Context, ch chan int) {
	<-ch // want `channel receive outside a select with ctx\.Done\(\)`
	_ = ctx
}

// recvDone is exempt: waiting for cancellation is the point.
func recvDone(ctx context.Context) {
	<-ctx.Done()
}

// deafSelect has no escape hatch.
func deafSelect(ctx context.Context, a, b chan int) {
	select { // want `select has neither a default nor a ctx\.Done\(\) case`
	case <-a:
	case <-b:
	}
	_ = ctx
}

// defaultSelect escapes through its default case.
func defaultSelect(ctx context.Context, a chan int) {
	select {
	case <-a:
	default:
	}
	_ = ctx
}

// drain blocks until the sender closes the channel.
func drain(ctx context.Context, ch chan int) {
	for range ch { // want `range over a channel blocks until the sender closes it`
	}
	_ = ctx
}

// join waits on a WaitGroup the context cannot interrupt.
func join(ctx context.Context, wg *sync.WaitGroup) {
	wg.Wait() // want `\(\*sync\.WaitGroup\)\.Wait blocks without consulting ctx`
	_ = ctx
}

// dial uses the context-free constructor.
func dial(ctx context.Context, addr string) {
	net.Dial("tcp", addr) // want `net\.Dial blocks without consulting ctx`
	_ = ctx
}

// contextFree binds no context: its channel discipline is its own business.
func contextFree(ch chan int) {
	ch <- 1
	<-ch
}

// captured returns a literal that captures ctx — the literal is
// context-bearing even without a parameter.
func captured(ctx context.Context, ch chan int) func() {
	return func() {
		<-ctx.Done()
		ch <- 1 // want `channel send outside a select with ctx\.Done\(\)`
	}
}

// allowed documents a justified wait; the allow suppresses the finding.
func allowed(ctx context.Context, wg *sync.WaitGroup) {
	wg.Wait() //alloyvet:allow(ctxflow) workers honor ctx; the join is bounded
	_ = ctx
}
