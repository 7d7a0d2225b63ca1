package tmod_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/tmod"
	"repro/internal/vfg"
	"repro/internal/workload"
)

// TestStepBudgetSharedByThreads: the per-thread solves run in goroutines
// of their own and charge one run-wide step counter (run it under -race).
// A limit of half the unbudgeted run's pops trips the solve with
// ErrOverBudget; a generous limit leaves the result unchanged.
func TestStepBudgetSharedByThreads(t *testing.T) {
	src, err := workload.Generate("ferret", 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pipeline.FromSource("ferret.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(b.Model.Threads); n < 3 {
		t.Fatalf("ferret@2 has %d threads, want several solving at once", n)
	}
	g := vfg.BuildWithOptions(b.Model, vfg.Options{ThreadOblivious: true})
	full := tmod.Solve(b.Model, g, tmod.Options{})

	ctx := engine.WithBudget(context.Background(), engine.Budget{MaxSteps: int64(full.Iterations / 2)})
	if r, err := tmod.SolveCtx(ctx, b.Model, g, tmod.Options{}); !errors.Is(err, engine.ErrOverBudget) || r != nil {
		t.Errorf("limit %d of %d pops: result %v, err %v; want a budget trip", full.Iterations/2, full.Iterations, r != nil, err)
	}

	ctx = engine.WithBudget(context.Background(), engine.Budget{MaxSteps: int64(10 * full.Iterations)})
	r, err := tmod.SolveCtx(ctx, b.Model, g, tmod.Options{})
	if err != nil {
		t.Fatalf("limit %d: %v", 10*full.Iterations, err)
	}
	if r.Iterations != full.Iterations || r.Rounds != full.Rounds {
		t.Errorf("budgeted run: %d pops in %d rounds, unbudgeted %d in %d",
			r.Iterations, r.Rounds, full.Iterations, full.Rounds)
	}
}
