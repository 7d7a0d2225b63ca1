package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// Budget caps the resources a run's fixpoint loops may consume beyond
// wall-clock time: a soft process-heap budget and a run-wide step limit.
// Budgets ride on the context (WithBudget) so they reach every solver
// through the same channel as cancellation, and they are enforced at the
// same amortized poll (Canceller.Cancelled) as the deadline — a trip
// surfaces as an error wrapping ErrOverBudget, symmetric with
// context.DeadlineExceeded.
//
// The pre-analysis is deliberately exempt (it uses NewCanceller, not
// NewLimitedCanceller): FSAM is staged so that the cheap, sound Andersen
// stage always completes and every later failure can fall back to it.
type Budget struct {
	// MemBytes is a soft budget on the live process heap
	// (/memory/classes/heap/objects:bytes via runtime/metrics); 0 means
	// unlimited. "Soft" because it is polled every PollInterval steps and
	// measures the whole heap, not one analysis' share.
	MemBytes uint64
	// MaxSteps bounds the worklist pops (Cancelled calls) of all the
	// fixpoint loops that share one WithBudget context, summed; 0 means
	// unlimited. The trip error is attributed to the phase that was
	// running by the pass manager.
	MaxSteps int64
}

// IsZero reports whether b imposes no limits.
func (b Budget) IsZero() bool { return b.MemBytes == 0 && b.MaxSteps == 0 }

// ErrOverBudget is wrapped by every budget-trip error, so callers can
// classify them with errors.Is regardless of which limit fired.
var ErrOverBudget = errors.New("over resource budget")

type budgetKey struct{}

// runBudget is what WithBudget puts on the context: the limits plus the
// one step counter every Canceller built from that context charges. It is
// atomic because concurrent solves (the thread-modular engine's
// per-thread goroutines) poll it at once.
type runBudget struct {
	Budget
	steps atomic.Int64
}

// WithBudget returns a context carrying b and a fresh run-wide step
// counter. A zero budget returns ctx unchanged.
func WithBudget(ctx context.Context, b Budget) context.Context {
	if b.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, budgetKey{}, &runBudget{Budget: b})
}

// runBudgetFrom returns the budget state carried by ctx (nil when absent).
func runBudgetFrom(ctx context.Context) *runBudget {
	if ctx == nil {
		return nil
	}
	rb, _ := ctx.Value(budgetKey{}).(*runBudget)
	return rb
}

// BudgetFrom extracts the Budget carried by ctx (zero when absent).
func BudgetFrom(ctx context.Context) Budget {
	if rb := runBudgetFrom(ctx); rb != nil {
		return rb.Budget
	}
	return Budget{}
}

// heapMetric is the runtime/metrics name of the live-heap gauge the memory
// budget polls.
const heapMetric = "/memory/classes/heap/objects:bytes"

// newHeapSample returns a sample slice for HeapBytes. Each Canceller owns
// its slice: metrics.Read writes into it, so sharing one across concurrent
// phases would race.
func newHeapSample() []metrics.Sample {
	s := make([]metrics.Sample, 1)
	s[0].Name = heapMetric
	return s
}

// HeapBytes reads the live-heap gauge into s (from newHeapSample). The
// cheap gauge aggregates per-P stat caches that may not have flushed yet
// (fresh process, only small allocations), in which case it reads zero —
// a value no live Go heap ever has — so that case falls back to the
// precise stop-the-world accounting. The fallback keeps one-byte budgets
// (used by tests to force degradation) deterministic.
func HeapBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		if v := s[0].Value.Uint64(); v > 0 {
			return v
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// overStepsError builds the step-limit trip error.
func overStepsError(steps, limit int64) error {
	return fmt.Errorf("%w: %d worklist steps (limit %d)", ErrOverBudget, steps, limit)
}

// overMemError builds the memory-budget trip error.
func overMemError(heap, budget uint64) error {
	return fmt.Errorf("%w: live heap %d bytes (budget %d)", ErrOverBudget, heap, budget)
}
