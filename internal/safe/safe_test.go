package safe

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupRunsAll(t *testing.T) {
	g := NewGroup(context.Background(), 4)
	var n int64
	for i := 0; i < 100; i++ {
		g.Go(func() error {
			atomic.AddInt64(&n, 1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("ran %d of 100", n)
	}
}

func TestGroupCollectsFirstError(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	want := errors.New("boom")
	for i := 0; i < 10; i++ {
		i := i
		g.Go(func() error {
			if i == 3 {
				return want
			}
			return nil
		})
	}
	if err := g.Wait(); !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestGroupConvertsPanicToError(t *testing.T) {
	g := NewGroup(context.Background(), 2)
	g.Go(func() error { panic("worker exploded") })
	err := g.Wait()
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), "worker exploded") {
		t.Errorf("error lost the panic value: %v", pe)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("panic error has no stack attached")
	}
}

func TestGroupObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := NewGroup(ctx, 1)
	started := make(chan struct{})
	g.Go(func() error {
		close(started)
		<-ctx.Done() // simulate long work interrupted by cancel
		return ctx.Err()
	})
	<-started
	// These are queued behind the limit; after cancel they must not run.
	var ran int64
	for i := 0; i < 5; i++ {
		g.Go(func() error {
			atomic.AddInt64(&ran, 1)
			return nil
		})
	}
	cancel()
	if err := g.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGroupWaitIsPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := NewGroup(ctx, 1)
	for i := 0; i < 1000; i++ {
		g.Go(func() error {
			time.Sleep(50 * time.Millisecond)
			return nil
		})
	}
	start := time.Now()
	err := g.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// A cancelled group must not serially execute the queued work.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Wait took %v on a cancelled group", d)
	}
}

func TestRecoverTo(t *testing.T) {
	f := func() (err error) {
		defer RecoverTo(&err)
		panic(fmt.Errorf("inner failure"))
	}
	err := f()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v", err, err)
	}
	// A re-thrown *PanicError passes through without re-wrapping.
	g := func() (err error) {
		defer RecoverTo(&err)
		panic(pe)
	}
	if got := g(); got != error(pe) {
		t.Errorf("re-thrown PanicError was re-wrapped: %v", got)
	}
}

func TestRecoverToNoPanic(t *testing.T) {
	f := func() (err error) {
		defer RecoverTo(&err)
		return nil
	}
	if err := f(); err != nil {
		t.Fatalf("spurious error: %v", err)
	}
}

// TestChunksCoverOnce: every index of [0,n) is handed to exactly one call,
// for spans run inline and spans fanned out, including uneven splits.
func TestChunksCoverOnce(t *testing.T) {
	for _, n := range []int{0, 1, 31, 32, 33, 64, 1000, 1584} {
		seen := make([]int32, n)
		Chunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d handed out %d times", n, i, c)
			}
		}
	}
}

// TestChunksRethrowPanicError: a worker's panic reaches the caller's
// goroutine as a *PanicError carrying the panic value, and RecoverTo turns
// it into the entry point's error.
func TestChunksRethrowPanicError(t *testing.T) {
	run := func() (err error) {
		defer RecoverTo(&err)
		Chunks(1000, func(lo, hi int) {
			if lo <= 500 && 500 < hi {
				panic("chunk exploded")
			}
		})
		return nil
	}
	err := run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T %v, want *PanicError", err, err)
	}
	if pe.Value != "chunk exploded" {
		t.Errorf("panic value = %v", pe.Value)
	}
}
