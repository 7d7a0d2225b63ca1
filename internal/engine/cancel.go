package engine

import (
	"context"
	"runtime/metrics"
)

// PollInterval is the number of worklist pops (or equivalent loop
// iterations) between context-cancellation checks in the solvers' fixpoint
// loops. ctx.Err() costs an atomic load plus a mutex in the worst case, so
// amortizing it keeps the poll overhead invisible while bounding the
// latency of a cancellation to ~PollInterval pops.
const PollInterval = 256

// Canceller amortizes context cancellation (and, when built with
// NewLimitedCanceller, resource-budget) polling over tight solver loops:
// Cancelled reports true once ctx is done or a Budget limit trips,
// checking the context and the heap gauge every PollInterval calls and the
// step limit on every call. A nil Canceller (or one built from a nil
// context) never cancels, so solvers can thread it unconditionally. One
// Canceller serves one loop; the step count it charges is the run's.
type Canceller struct {
	ctx  context.Context
	tick uint32
	done bool
	err  error

	run *runBudget
	mem []metrics.Sample
}

// NewCanceller returns a Canceller polling ctx's cancellation only; any
// Budget on ctx is ignored (the pre-analysis path — the ladder's safety
// net — must not be starved by the budget meant for the expensive
// phases). ctx may be nil.
func NewCanceller(ctx context.Context) *Canceller {
	if ctx == nil {
		return nil
	}
	// Fast path: Background and friends can never be cancelled.
	if ctx.Done() == nil {
		return nil
	}
	return &Canceller{ctx: ctx}
}

// NewLimitedCanceller returns a Canceller enforcing both ctx's
// cancellation and the Budget it carries (WithBudget). Every Canceller
// built from one budgeted context charges the same step counter, so the
// step limit bounds the run, not each loop. With no budget it behaves
// exactly like NewCanceller.
func NewLimitedCanceller(ctx context.Context) *Canceller {
	rb := runBudgetFrom(ctx)
	if rb == nil {
		return NewCanceller(ctx)
	}
	c := &Canceller{ctx: ctx, run: rb}
	if rb.MemBytes > 0 {
		c.mem = newHeapSample()
	}
	return c
}

// Cancelled reports whether the run must stop — context cancelled or
// budget exhausted. The step limit is checked every call; the context and
// the heap gauge every PollInterval calls (the first call always polls, so
// an already-expired context is seen immediately).
func (c *Canceller) Cancelled() bool {
	if c == nil {
		return false
	}
	if c.done {
		return true
	}
	if c.run != nil && c.run.MaxSteps > 0 {
		if n := c.run.steps.Add(1); n > c.run.MaxSteps {
			return c.fail(overStepsError(n, c.run.MaxSteps))
		}
	}
	if c.tick%PollInterval == 0 {
		if err := c.ctx.Err(); err != nil {
			return c.fail(err)
		}
		if c.mem != nil {
			if h := HeapBytes(c.mem); h > c.run.MemBytes {
				return c.fail(overMemError(h, c.run.MemBytes))
			}
		}
	}
	c.tick++
	return false
}

// fail latches the stop reason.
func (c *Canceller) fail(err error) bool {
	c.done = true
	c.err = err
	return true
}

// Err returns the reason the Canceller tripped: the budget error when a
// limit fired, otherwise the context's error (nil if neither, or c is
// nil).
func (c *Canceller) Err() error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	return c.ctx.Err()
}
