// Package safe provides the concurrency hardening primitives the experiment
// engine fans out with: bounded worker groups that convert a worker panic
// into a returned error (with the goroutine stack attached) and observe
// context cancellation, so a single bad snapshot cannot kill an hours-long
// run and Ctrl-C stops it within one snapshot's work.
package safe

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"sync"

	"leosim/internal/telemetry"
)

// PanicError is a recovered panic promoted to an error. Stack is the stack
// of the panicking goroutine, captured at the recovery site.
type PanicError struct {
	Value interface{}
	Stack []byte
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// AsError converts a recovered panic value into a *PanicError, capturing the
// current goroutine stack. A value that already is a *PanicError (a panic
// re-thrown across a fan-out boundary) passes through unchanged so the
// original stack survives.
func AsError(r interface{}) error {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// RecoverTo is deferred at the top of experiment entry points: it converts
// an in-flight panic (including one re-thrown by a parallel fan-out) into
// *errp, so callers see an error instead of a crashed process. The flight
// recorder is dumped to stderr at the recovery site — the events leading up
// to a panic are exactly what a post-mortem needs, and the ring is lost once
// the error is absorbed upstream. No-op when telemetry is off or empty.
func RecoverTo(errp *error) {
	if r := recover(); r != nil && *errp == nil {
		*errp = AsError(r)
		telemetry.DumpEvents(os.Stderr)
	}
}

// Chunks calls fn on contiguous ranges that together cover [0,n), each
// range on its own goroutine, and returns once every call has. The ranges are
// disjoint, so fn may write the indices it is handed without locking, and
// what it writes cannot depend on where [0,n) was cut. A span too short to
// share runs as one inline call. A panic in a worker goroutine is re-thrown
// on the caller's as a *PanicError carrying the worker's stack, so the
// entry point's RecoverTo reports it as an error instead of the process
// dying.
//
// The span is cut into eight ranges, not one per processor: the GSL scan's
// terminals differ widely in cost, and on a 2-core box eight ranges built
// a reduced bent-pipe snapshot faster than two in four of five alternating
// runs, while propagation alone showed no difference outside its spread.
func Chunks(n int, fn func(lo, hi int)) {
	const chunks = 8
	if n < chunks*4 {
		fn(0, n)
		return
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked error
	)
	size := (n + chunks - 1) / chunks
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = AsError(r)
					}
					mu.Unlock()
				}
			}()
			fn(lo, hi)
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Group runs functions on at most `limit` concurrent goroutines, stops
// starting new work once the context is cancelled or a function fails, and
// recovers panics into errors. The zero Group is not usable; call NewGroup.
type Group struct {
	ctx context.Context
	sem chan struct{}
	wg  sync.WaitGroup

	mu  sync.Mutex
	err error
}

// NewGroup creates a group bound to ctx with the given concurrency limit
// (values < 1 are treated as 1). A nil ctx means context.Background().
func NewGroup(ctx context.Context, limit int) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	if limit < 1 {
		limit = 1
	}
	return &Group{ctx: ctx, sem: make(chan struct{}, limit)}
}

func (g *Group) setErr(err error) {
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
}

// failed reports whether some worker already recorded an error.
func (g *Group) failed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err != nil
}

// Go schedules fn. The goroutine starts immediately but blocks on the
// concurrency limiter; cancellation or a prior failure makes it return
// without running fn.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				g.setErr(AsError(r))
			}
		}()
		select {
		case g.sem <- struct{}{}:
		case <-g.ctx.Done():
			g.setErr(g.ctx.Err())
			return
		}
		defer func() { <-g.sem }()
		if err := g.ctx.Err(); err != nil {
			g.setErr(err)
			return
		}
		if g.failed() {
			return // a sibling already failed; skip the work
		}
		if err := fn(); err != nil {
			g.setErr(err)
		}
	}()
}

// Wait blocks until every scheduled function finished (or was skipped) and
// returns the first recorded error: a worker error, a *PanicError, or the
// context's error if cancellation stopped the group.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
