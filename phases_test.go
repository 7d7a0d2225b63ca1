package fsam_test

// Tests for the pass-manager refounding of the facade: schedule
// equivalence (parallel vs sequential runs produce byte-identical
// results), prompt context cancellation with partial progress, and
// per-phase accounting read off the manager's Report.

import (
	"context"
	"errors"
	"reflect"
	"sort"
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

// globalPointsTo collects the points-to set of every global at exit.
func globalPointsTo(t *testing.T, a *fsam.Analysis) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, o := range a.Prog.Objects {
		if o.Kind != ir.ObjGlobal {
			continue
		}
		pt, err := a.PointsToGlobal(o.Name)
		if err != nil {
			t.Fatal(err)
		}
		out[o.Name] = pt
	}
	return out
}

// TestParallelSequentialIdentical runs the same program under the
// concurrent and the sequential schedule and requires identical results:
// same points-to set for every global, same edge counts, and the same
// Stats modulo wall-clock times. ferret both spawns threads and locks, so
// the interleaving and lock phases genuinely overlap in the parallel run.
func TestParallelSequentialIdentical(t *testing.T) {
	prog := compileWorkload(t, "ferret", 1)
	par := fsam.AnalyzeProgram(prog, fsam.Config{})
	prog2 := compileWorkload(t, "ferret", 1)
	seq := fsam.AnalyzeProgram(prog2, fsam.Config{Sequential: true})

	ppt, spt := globalPointsTo(t, par), globalPointsTo(t, seq)
	if len(ppt) == 0 {
		t.Fatal("no globals analyzed")
	}
	var names []string
	for n := range ppt {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p, s := ppt[n], spt[n]
		if len(p) != len(s) {
			t.Fatalf("pt(%s): parallel %v vs sequential %v", n, p, s)
		}
		for i := range p {
			if p[i] != s[i] {
				t.Fatalf("pt(%s): parallel %v vs sequential %v", n, p, s)
			}
		}
	}

	zeroTimes := func(st fsam.Stats) fsam.Stats {
		st.Phases = nil // completion order and times differ by schedule
		return st
	}
	if !reflect.DeepEqual(zeroTimes(par.Stats), zeroTimes(seq.Stats)) {
		t.Errorf("stats diverge between schedules:\nparallel:   %+v\nsequential: %+v",
			zeroTimes(par.Stats), zeroTimes(seq.Stats))
	}
	if par.Stats.DefUseEdges == 0 || par.Stats.ThreadEdges == 0 {
		t.Errorf("expected thread-aware edges on ferret: %+v", par.Stats)
	}
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

// TestStatsTimesComeFromManager: every phase is recorded once by the
// manager, the entries sum to Total(), and AnalyzeSource attributes compile
// time directly (not derived by subtraction, so it is non-negative and the
// components are individually positive).
func TestStatsTimesComeFromManager(t *testing.T) {
	spec, _ := workload.ByName("word_count")
	src := workload.GenerateSpec(spec, 1)
	a, err := fsam.AnalyzeSource("word_count.mc", src, fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sum time.Duration
	got := map[string]int{}
	for _, p := range a.Stats.Phases {
		sum += p.Time
		got[p.Name]++
		if p.Time <= 0 {
			t.Errorf("phase %s has no recorded time", p.Name)
		}
	}
	if a.Stats.Total() != sum {
		t.Errorf("Total() = %v, sum of phases = %v", a.Stats.Total(), sum)
	}
	want := map[string]int{"compile": 1, "preanalysis": 1, "threadmodel": 1, "interleave": 1,
		"escape": 1, "locks": 1, "defuse": 1, "sparse": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("phases = %v, want each of %v once", a.Stats.Phases, want)
	}
	if a.Stats.Phases[0].Name != "compile" {
		t.Errorf("first phase = %s, want compile", a.Stats.Phases[0].Name)
	}
}

// TestBaselineCtxAndOOT covers the two deadline paths of the baseline: a
// context expiring before the solve yields a PhaseError with partial
// progress, and the legacy timeout parameter maps that onto OOT.
func TestBaselineCtxAndOOT(t *testing.T) {
	prog := compileWorkload(t, "word_count", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := fsam.AnalyzeProgramNonSparseCtx(ctx, prog)
	if err == nil || !pipeline.ErrCancelled(err) {
		t.Fatalf("err = %v, want cancellation", err)
	}
	if b == nil {
		t.Fatal("partial Baseline missing")
	}

	prog2 := compileWorkload(t, "x264", 1)
	b2 := fsam.AnalyzeProgramNonSparse(prog2, time.Nanosecond)
	if !b2.OOT {
		t.Error("nanosecond budget must report OOT")
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
