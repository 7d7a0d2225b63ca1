package fsam_test

// Tests for the pass-manager refounding of the facade: phases run in the
// engine's list order, prompt context cancellation with partial progress,
// and per-phase accounting read off the manager's Report.

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	fsam "repro"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// compileWorkload compiles one generated workload benchmark.
func compileWorkload(t *testing.T, name string, scale int) *ir.Program {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	prog, err := pipeline.Compile(name, workload.GenerateSpec(spec, scale))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestAnalyzeProgramCtxCancellation: an already-expired context must make
// AnalyzeProgramCtx return promptly with a cancellation PhaseError and a
// partially-populated Analysis (no completed solve).
func TestAnalyzeProgramCtxCancellation(t *testing.T) {
	prog := compileWorkload(t, "x264", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	a, err := fsam.AnalyzeProgramCtx(ctx, prog, fsam.Config{})
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if !pipeline.ErrCancelled(err) {
		t.Fatalf("err = %v, want context cancellation", err)
	}
	var pe *pipeline.PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *pipeline.PhaseError", err)
	}
	if a == nil {
		t.Fatal("partial Analysis missing")
	}
	if a.Result != nil {
		t.Error("solve completed under an expired context")
	}
	// Cancellation is polled at worklist pops (amortized); on an expired
	// context the first poll fires, so anything beyond a second means a
	// fixpoint loop is not honoring ctx.
	if elapsed > time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestAnalyzeProgramCtxDeadlineMidRun: a deadline that expires during the
// run (not before) must also surface as ErrCancelled.
func TestAnalyzeProgramCtxDeadlineMidRun(t *testing.T) {
	prog := compileWorkload(t, "x264", 2)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Microsecond)
	defer cancel()
	a, err := fsam.AnalyzeProgramCtx(ctx, prog, fsam.Config{})
	if err == nil {
		t.Skip("machine too fast: analysis finished inside 500µs")
	}
	if !pipeline.ErrCancelled(err) {
		t.Fatalf("err = %v, want deadline expiry", err)
	}
	if a == nil {
		t.Fatal("partial Analysis missing")
	}
}

// TestStatsTimesComeFromManager: a default fsam run reports its top-level
// phases in the engine's list order on every run, each with a recorded
// time, and since phases never overlap they sum to Total(), which fits
// inside the call's wall time. AnalyzeSource attributes compile time
// directly (not derived by subtraction). ferret spawns threads and takes
// locks, so every interference phase has work.
func TestStatsTimesComeFromManager(t *testing.T) {
	spec, _ := workload.ByName("ferret")
	src := workload.GenerateSpec(spec, 1)
	want := []string{"compile", "preanalysis", "threadmodel", "escape", "locks", "interleave", "defuse", "sparse"}
	for run := 0; run < 5; run++ {
		t0 := time.Now()
		a, err := fsam.AnalyzeSource("ferret.mc", src, fsam.Config{})
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		var sum time.Duration
		for _, p := range a.Stats.Phases {
			if p.Time <= 0 {
				t.Errorf("run %d: phase %s has no recorded time", run, p.Name)
			}
			if !p.Subphase() {
				names = append(names, p.Name)
				sum += p.Time
			}
		}
		if !slices.Equal(names, want) {
			t.Fatalf("run %d: phases = %v, want %v", run, names, want)
		}
		if a.Stats.Total() != sum || sum > wall {
			t.Errorf("run %d: Total() = %v, sum of phases = %v, wall = %v", run, a.Stats.Total(), sum, wall)
		}
	}
}

// TestBaselineCtxAndOOT covers the cancellation paths of the NONSPARSE
// engine with the ladder off: a context that dies before the solve yields
// a PhaseError with partial progress, and one that dies inside the solve
// fails the phase (the partial result is marked OOT) — which, with the
// ladder on, degrades to the Andersen rung instead.
func TestBaselineCtxAndOOT(t *testing.T) {
	prog := compileWorkload(t, "word_count", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := fsam.AnalyzeProgramCtx(ctx, prog, nonsparseCfg)
	if err == nil || !pipeline.ErrCancelled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if b == nil || b.Prog == nil {
		t.Fatal("partial Analysis missing")
	}

	for _, cfg := range []fsam.Config{nonsparseCfg, {Engine: "nonsparse"}} {
		prog := compileWorkload(t, "x264", 1)
		ctx, cancel := context.WithCancel(context.Background())
		wrapPhases(t, []string{fsam.PhaseNonSparse}, func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error {
			cancel() // the context dies inside the solve
			return orig.Run(ctx, st)
		})
		b, err := fsam.AnalyzeProgramCtx(ctx, prog, cfg)
		cancel()
		if cfg.NoDegrade {
			if err == nil || !pipeline.ErrCancelled(err) {
				t.Fatalf("NoDegrade: err = %v, want cancellation", err)
			}
			if b.NS == nil || !b.NS.OOT || b.Precision != fsam.PrecisionNone {
				t.Errorf("NoDegrade: NS = %v, precision = %s; want a partial OOT result", b.NS, b.Precision)
			}
			continue
		}
		if err != nil || b.Precision != fsam.PrecisionAndersenOnly || !strings.Contains(b.Stats.Degraded, "out of time") {
			t.Errorf("ladder: err = %v, precision = %s, degraded = %q; want an Andersen landing",
				err, b.Precision, b.Stats.Degraded)
		}
	}
}

// TestFSAMOOTSymmetry: the harness-level FSAM deadline behaves like the
// NONSPARSE budget — detectable via pipeline.ErrCancelled so Table 2 can
// print OOT rows for either analysis.
func TestFSAMOOTSymmetry(t *testing.T) {
	prog := compileWorkload(t, "x264", 1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := fsam.AnalyzeProgramCtx(ctx, prog, fsam.Config{})
	if err == nil || !pipeline.ErrCancelled(err) {
		t.Fatalf("err = %v, want deadline expiry", err)
	}
}
