package randprog_test

import (
	"context"
	"testing"

	fsam "repro"
	"repro/internal/randprog"
)

// TestDegradedSubsetOfAndersen: under a one-byte memory budget the
// pre-analysis (budget-exempt by design) still completes, every later
// phase trips on its first poll, and the ladder lands deterministically on
// the Andersen-only tier — whose answers must equal the flow-insensitive
// pre-analysis of an unbudgeted run. Combined with TestThreadedRefinement
// (FSAM ⊆ Andersen) this pins the ladder's soundness story: degrading can
// only widen points-to sets, never invent or lose objects vs Andersen.
func TestDegradedSubsetOfAndersen(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Threaded(seed, 3)
		full, err := fsam.AnalyzeSource("thr.mc", src, fsam.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		deg, err := fsam.AnalyzeSource("thr.mc", src, fsam.Config{MemBudgetBytes: 1})
		if err != nil {
			t.Fatalf("seed %d: degraded run errored: %v", seed, err)
		}
		if deg.Precision != fsam.PrecisionAndersenOnly {
			t.Fatalf("seed %d: precision = %s, want %s (degraded: %q)",
				seed, deg.Precision, fsam.PrecisionAndersenOnly, deg.Stats.Degraded)
		}
		if deg.Stats.Degraded == "" {
			t.Errorf("seed %d: degraded tier with empty Stats.Degraded", seed)
		}
		for _, g := range pointerGlobals(full) {
			dp, err1 := deg.PointsToGlobal(g)
			ap, err2 := full.AndersenPointsToGlobal(g)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d: query pt(%s): %v / %v", seed, g, err1, err2)
			}
			if !subset(dp, ap) || !subset(ap, dp) {
				t.Errorf("seed %d: degraded pt(%s)=%v != Andersen %v\n%s",
					seed, g, dp, ap, src)
			}
			fs, err3 := full.PointsToGlobal(g)
			if err3 == nil && !subset(fs, dp) {
				t.Errorf("seed %d: full FSAM pt(%s)=%v not within degraded %v",
					seed, g, fs, dp)
			}
		}
	}
}

// TestBudgetTripsNeverPanic: random threaded programs under assorted tiny
// budgets always come back as a labeled tier with working queries — no
// panic, no error, no zero-value result.
func TestBudgetTripsNeverPanic(t *testing.T) {
	configs := []fsam.Config{
		{MemBudgetBytes: 1},
		{StepLimit: 1},
		{StepLimit: 500},
		{MemBudgetBytes: 1, StepLimit: 1},
	}
	for seed := int64(0); seed < 10; seed++ {
		src := randprog.Threaded(seed, 2)
		for _, cfg := range configs {
			a, err := fsam.AnalyzeSourceCtx(context.Background(), "thr.mc", src, cfg)
			if err != nil {
				t.Fatalf("seed %d cfg %+v: %v", seed, cfg, err)
			}
			if a.Precision == fsam.PrecisionNone {
				t.Fatalf("seed %d cfg %+v: landed on %s", seed, cfg, a.Precision)
			}
			if a.Precision != fsam.PrecisionSparseFS && a.Stats.Degraded == "" {
				t.Errorf("seed %d cfg %+v: %s with empty Stats.Degraded",
					seed, cfg, a.Precision)
			}
			for _, g := range pointerGlobals(a) {
				if _, err := a.PointsToGlobal(g); err != nil {
					t.Errorf("seed %d cfg %+v: pt(%s): %v", seed, cfg, g, err)
				}
			}
		}
	}
}
