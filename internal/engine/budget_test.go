package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestStepLimitTrips(t *testing.T) {
	ctx := WithBudget(context.Background(), Budget{MaxSteps: 10})
	c := NewLimitedCanceller(ctx)
	if c == nil {
		t.Fatal("limited canceller is nil despite budget")
	}
	for i := 0; i < 10; i++ {
		if c.Cancelled() {
			t.Fatalf("tripped after %d steps, limit 10", i+1)
		}
	}
	if !c.Cancelled() {
		t.Fatal("did not trip past the step limit")
	}
	if !errors.Is(c.Err(), ErrOverBudget) {
		t.Fatalf("Err() = %v, want ErrOverBudget", c.Err())
	}
	if !c.Cancelled() {
		t.Error("trip did not latch")
	}
}

// TestStepLimitIsRunWide: cancellers built from one budgeted context
// charge one step counter, so the limit bounds the loops together. A
// context from a second WithBudget call starts a count of its own.
func TestStepLimitIsRunWide(t *testing.T) {
	ctx := WithBudget(context.Background(), Budget{MaxSteps: 10})
	a, b := NewLimitedCanceller(ctx), NewLimitedCanceller(ctx)
	for i := 0; i < 5; i++ {
		if a.Cancelled() || b.Cancelled() {
			t.Fatalf("tripped after %d steps per loop, limit 10 in all", i+1)
		}
	}
	if !b.Cancelled() {
		t.Fatal("second loop did not trip on the run's 11th step")
	}
	if !errors.Is(b.Err(), ErrOverBudget) {
		t.Fatalf("Err() = %v, want ErrOverBudget", b.Err())
	}
	if !a.Cancelled() {
		t.Error("first loop did not see the run's spent budget")
	}
	fresh := NewLimitedCanceller(WithBudget(context.Background(), Budget{MaxSteps: 10}))
	if fresh.Cancelled() {
		t.Error("a new budgeted context inherited another run's steps")
	}
}

// TestStepLimitConcurrentLoops: loops polling one budget from several
// goroutines (as the thread-modular engine's per-thread solves do) spend
// exactly the limit between them before every one of them trips.
func TestStepLimitConcurrentLoops(t *testing.T) {
	const loops, limit = 4, 1000
	ctx := WithBudget(context.Background(), Budget{MaxSteps: limit})
	var passed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < loops; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewLimitedCanceller(ctx)
			for !c.Cancelled() {
				passed.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := passed.Load(); got != limit {
		t.Errorf("loops passed %d steps in all, want %d", got, limit)
	}
}

func TestMemBudgetTripsOnFirstPoll(t *testing.T) {
	// Any live Go heap exceeds one byte, and the first Cancelled call
	// always polls the gauge, so the trip is deterministic.
	ctx := WithBudget(context.Background(), Budget{MemBytes: 1})
	c := NewLimitedCanceller(ctx)
	if !c.Cancelled() {
		t.Fatal("one-byte heap budget did not trip on first poll")
	}
	if !errors.Is(c.Err(), ErrOverBudget) {
		t.Fatalf("Err() = %v, want ErrOverBudget", c.Err())
	}
}

func TestZeroBudgetBehavesLikePlainCanceller(t *testing.T) {
	if c := NewLimitedCanceller(context.Background()); c != nil {
		t.Errorf("no budget + uncancellable ctx should give nil, got %v", c)
	}
	ctx, cancel := context.WithCancel(WithBudget(context.Background(), Budget{}))
	defer cancel()
	c := NewLimitedCanceller(ctx)
	if c == nil {
		t.Fatal("cancellable ctx must give a canceller")
	}
	if c.Cancelled() {
		t.Error("cancelled before ctx done")
	}
	cancel()
	tripped := false
	for i := 0; i <= PollInterval; i++ {
		if c.Cancelled() {
			tripped = true
			break
		}
	}
	if !tripped {
		t.Error("cancellation not seen within one poll interval")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", c.Err())
	}
}

func TestPreAnalysisCancellerIgnoresBudget(t *testing.T) {
	ctx := WithBudget(context.Background(), Budget{MemBytes: 1, MaxSteps: 1})
	if c := NewCanceller(ctx); c != nil {
		// Background ctx has no Done channel, so the budget-blind
		// constructor returns nil: the pre-analysis runs unthrottled.
		t.Errorf("NewCanceller must ignore the budget, got %v", c)
	}
}

func TestBudgetRoundTrip(t *testing.T) {
	b := Budget{MemBytes: 123, MaxSteps: 456}
	got := BudgetFrom(WithBudget(context.Background(), b))
	if got != b {
		t.Errorf("BudgetFrom = %+v, want %+v", got, b)
	}
	if !BudgetFrom(context.Background()).IsZero() {
		t.Error("background ctx must carry the zero budget")
	}
	if WithBudget(context.Background(), Budget{}) != context.Background() {
		t.Error("zero budget must not wrap the context")
	}
}
