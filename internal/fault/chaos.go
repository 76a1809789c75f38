package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"leosim/internal/telemetry"
)

// InjectedError marks a failure the chaos injector manufactured, so test
// assertions (and operators reading logs) can tell injected faults from
// real ones.
type InjectedError struct {
	// Key names the operation that was failed (e.g. a snapshot-cache key).
	Key string
	// N is the injector's draw counter at the time of the failure, which
	// makes every injected error unique and traceable to its draw.
	N int64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected build failure #%d for %s", e.N, e.Key)
}

// Chaos is a seeded process-level fault injector for the serve path: it
// fails, delays, or panics snapshot builds with configured probabilities.
// Draws come from one seeded stream, so a given (seed, call sequence)
// always injects the same faults — chaos tests are reproducible, not
// merely random. The zero value injects nothing.
//
// Unlike Plan/Outages (which model the *constellation* failing), Chaos
// models the *software* failing: transient build errors, slow dependencies
// and crashed workers that the self-healing serve path must absorb.
type Chaos struct {
	// FailRate is the probability in [0,1] that a hooked operation returns
	// an InjectedError.
	FailRate float64
	// PanicRate is the probability in [0,1] that a hooked operation panics
	// (exercising the recover paths downstream).
	PanicRate float64
	// Delay is added before every hooked operation completes (injected
	// build latency; combine with a build timeout to exercise it).
	Delay time.Duration

	// Sleep overrides time.Sleep for tests; nil uses time.Sleep.
	Sleep func(time.Duration)

	mu  sync.Mutex
	rng *rand.Rand

	draws, fails, panics atomic.Int64
}

// NewChaos creates an injector whose draws are driven by seed.
func NewChaos(seed int64, failRate, panicRate float64, delay time.Duration) *Chaos {
	return &Chaos{
		FailRate:  failRate,
		PanicRate: panicRate,
		Delay:     delay,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// BuildHook is the snapshot-build injection point: sleep the configured
// delay, then panic or fail according to the seeded draw. It has
// snapcache's Options.BuildHook signature, so a cache wires it directly.
// Every injection lands in the flight recorder under CatChaos, carrying the
// trace ID from ctx so injected faults join to the requests that hit them.
func (c *Chaos) BuildHook(ctx context.Context, key string) error {
	if c == nil {
		return nil
	}
	if c.Delay > 0 {
		sleep := c.Sleep
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(c.Delay)
	}
	if c.FailRate <= 0 && c.PanicRate <= 0 {
		return nil
	}
	c.mu.Lock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	draw := c.rng.Float64()
	c.mu.Unlock()
	n := c.draws.Add(1)
	switch {
	case draw < c.PanicRate:
		c.panics.Add(1)
		telemetry.EmitEvent(ctx, telemetry.CatChaos, telemetry.SevWarn,
			"chaos injected build panic",
			telemetry.Str("key", key), telemetry.Int64("draw", n))
		panic(fmt.Sprintf("fault: injected build panic #%d for %s", n, key))
	case draw < c.PanicRate+c.FailRate:
		c.fails.Add(1)
		telemetry.EmitEvent(ctx, telemetry.CatChaos, telemetry.SevWarn,
			"chaos injected build failure",
			telemetry.Str("key", key), telemetry.Int64("draw", n))
		return &InjectedError{Key: key, N: n}
	}
	return nil
}

// Draws returns how many injection decisions have been made.
func (c *Chaos) Draws() int64 { return c.draws.Load() }

// Fails returns how many errors were injected.
func (c *Chaos) Fails() int64 { return c.fails.Load() }

// Panics returns how many panics were injected.
func (c *Chaos) Panics() int64 { return c.panics.Load() }
