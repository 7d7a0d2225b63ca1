package fsam_test

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	fsam "repro"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/server/client"
)

// ladderSrc is the Fig. 1a program: pt(c) = {y, z} under full FSAM, and
// every global's Andersen set is a superset of its flow-sensitive one.
const ladderSrc = `
int x; int y; int z;
int *p; int *q; int *r; int *c;
void foo(void *arg) {
	*p = q;
}
int main() {
	p = &x; q = &y; r = &z;
	thread_t t;
	t = spawn(foo, NULL);
	*p = r;
	c = *p;
	return 0;
}
`

// wrapPhases installs a test wrapper around the named phases (every
// instance the ladder schedules, including fallback rungs) and removes it
// on cleanup.
func wrapPhases(t *testing.T, names []string, run func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error) {
	t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	fsam.SetTestPhaseWrap(func(p pipeline.Phase) pipeline.Phase {
		if !want[p.Name] {
			return p
		}
		orig := p
		p.Run = func(ctx context.Context, st *pipeline.State) error {
			return run(orig, ctx, st)
		}
		return p
	})
	t.Cleanup(func() { fsam.SetTestPhaseWrap(nil) })
}

// wrapSparse wraps the sparse phase only (the tier-1 instance and the
// thread-oblivious fallback rung's instance).
func wrapSparse(t *testing.T, run func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error) {
	t.Helper()
	wrapPhases(t, []string{fsam.PhaseSparse}, run)
}

// checkSubsetOfAndersen: whatever tier the ladder landed on, points-to
// answers stay within the sound Andersen sets.
func checkSubsetOfAndersen(t *testing.T, a *fsam.Analysis, globals ...string) {
	t.Helper()
	for _, g := range globals {
		pt, err := a.PointsToGlobal(g)
		if err != nil {
			t.Fatalf("pt(%s): %v", g, err)
		}
		ai, err := a.AndersenPointsToGlobal(g)
		if err != nil {
			t.Fatalf("andersen pt(%s): %v", g, err)
		}
		set := map[string]bool{}
		for _, n := range ai {
			set[n] = true
		}
		for _, n := range pt {
			if !set[n] {
				t.Errorf("pt(%s) = %v outside Andersen %v", g, pt, ai)
			}
		}
	}
}

// TestSparsePanicDegradesToThreadOblivious: a one-shot panic in the sparse
// solve is contained, and the ladder reruns it over the thread-oblivious
// def-use graph.
func TestSparsePanicDegradesToThreadOblivious(t *testing.T) {
	for _, seq := range []bool{false, true} {
		var calls atomic.Int32
		wrapSparse(t, func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error {
			if calls.Add(1) == 1 {
				panic("injected sparse fault")
			}
			return orig.Run(ctx, st)
		})
		a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{Sequential: seq})
		if err != nil {
			t.Fatalf("Sequential=%v: degraded run errored: %v", seq, err)
		}
		if a.Precision != fsam.PrecisionThreadObliviousFS {
			t.Fatalf("Sequential=%v: precision = %s, want %s (degraded: %q)",
				seq, a.Precision, fsam.PrecisionThreadObliviousFS, a.Stats.Degraded)
		}
		if !strings.Contains(a.Stats.Degraded, "panicked") {
			t.Errorf("Degraded = %q, want panic reason", a.Stats.Degraded)
		}
		if a.Result == nil || a.Graph == nil {
			t.Fatalf("Sequential=%v: thread-oblivious tier missing Result/Graph", seq)
		}
		checkSubsetOfAndersen(t, a, "p", "q", "r", "c")
		fsam.SetTestPhaseWrap(nil)
	}
}

// TestPersistentSparseFailureDegradesToTmod: when the thread-oblivious
// fallback's sparse solve fails too, the ladder lands on the
// thread-modular rung — its per-thread solves run their own phase, not
// the shared sparse one, so the injected fault cannot reach it.
func TestPersistentSparseFailureDegradesToTmod(t *testing.T) {
	for _, seq := range []bool{false, true} {
		wrapSparse(t, func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error {
			panic("injected persistent fault")
		})
		a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{Sequential: seq})
		if err != nil {
			t.Fatalf("Sequential=%v: degraded run errored: %v", seq, err)
		}
		if a.Precision != fsam.PrecisionThreadModularFS {
			t.Fatalf("Sequential=%v: precision = %s, want %s (degraded: %q)",
				seq, a.Precision, fsam.PrecisionThreadModularFS, a.Stats.Degraded)
		}
		if a.Engine != "tmod" || a.Tmod == nil {
			t.Fatalf("Sequential=%v: engine = %q, Tmod = %v, want landed tmod rung", seq, a.Engine, a.Tmod)
		}
		if !strings.Contains(a.Stats.Degraded, "panicked") ||
			!strings.Contains(a.Stats.Degraded, "oblivious fallback") {
			t.Errorf("Degraded = %q, want original fault and fallback failure", a.Stats.Degraded)
		}
		checkSubsetOfAndersen(t, a, "p", "q", "r", "c")
		fsam.SetTestPhaseWrap(nil)
	}
}

// TestPersistentSparseFailureDegradesToCFGFree: when the sparse solves
// and the thread-modular rung all fail, the ladder lands on the CFG-free
// rung, which shares no sparse machinery with the failed tiers.
func TestPersistentSparseFailureDegradesToCFGFree(t *testing.T) {
	for _, seq := range []bool{false, true} {
		wrapPhases(t, []string{fsam.PhaseSparse, fsam.PhaseTmod},
			func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error {
				panic("injected persistent fault")
			})
		a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{Sequential: seq})
		if err != nil {
			t.Fatalf("Sequential=%v: degraded run errored: %v", seq, err)
		}
		if a.Precision != fsam.PrecisionCFGFreeFS {
			t.Fatalf("Sequential=%v: precision = %s, want %s (degraded: %q)",
				seq, a.Precision, fsam.PrecisionCFGFreeFS, a.Stats.Degraded)
		}
		if a.Engine != "cfgfree" || a.CFGFree == nil {
			t.Fatalf("Sequential=%v: engine = %q, CFGFree = %v, want landed cfgfree rung", seq, a.Engine, a.CFGFree)
		}
		if !strings.Contains(a.Stats.Degraded, "panicked") ||
			!strings.Contains(a.Stats.Degraded, "oblivious fallback") ||
			!strings.Contains(a.Stats.Degraded, "tmod fallback") {
			t.Errorf("Degraded = %q, want original fault and both fallback failures", a.Stats.Degraded)
		}
		if _, err := a.Races(); err == nil || !strings.Contains(err.Error(), "cfgfree-fs") {
			t.Errorf("Races on degraded tier: err = %v, want precision-gated refusal", err)
		}
		if reports := a.Leaks(); reports != nil {
			t.Errorf("Leaks on cfgfree tier = %v, want nil", reports)
		}
		checkSubsetOfAndersen(t, a, "p", "q", "r", "c")
		fsam.SetTestPhaseWrap(nil)
	}
}

// TestPersistentFailureDegradesToAndersen: when every phase-running rung
// fails — sparse solves and the CFG-free solve alike — queries answer from
// the pre-analysis, with the full failure history in Stats.Degraded, and
// the precision-gated clients refuse cleanly instead of crashing.
func TestPersistentFailureDegradesToAndersen(t *testing.T) {
	for _, seq := range []bool{false, true} {
		wrapPhases(t, []string{fsam.PhaseSparse, fsam.PhaseTmod, fsam.PhaseCFGFree},
			func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error {
				panic("injected persistent fault")
			})
		a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{Sequential: seq})
		if err != nil {
			t.Fatalf("Sequential=%v: degraded run errored: %v", seq, err)
		}
		if a.Precision != fsam.PrecisionAndersenOnly {
			t.Fatalf("Sequential=%v: precision = %s, want %s (degraded: %q)",
				seq, a.Precision, fsam.PrecisionAndersenOnly, a.Stats.Degraded)
		}
		if !strings.Contains(a.Stats.Degraded, "panicked") ||
			!strings.Contains(a.Stats.Degraded, "oblivious fallback") ||
			!strings.Contains(a.Stats.Degraded, "tmod fallback") ||
			!strings.Contains(a.Stats.Degraded, "cfgfree fallback") {
			t.Errorf("Degraded = %q, want original fault and every fallback failure", a.Stats.Degraded)
		}
		// Andersen answers are the Andersen sets exactly.
		pt, err := a.PointsToGlobal("c")
		if err != nil {
			t.Fatal(err)
		}
		ai, err := a.AndersenPointsToGlobal("c")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(pt, ",") != strings.Join(ai, ",") {
			t.Errorf("Andersen-only pt(c) = %v, want Andersen's %v", pt, ai)
		}
		if _, err := a.Races(); err == nil || !strings.Contains(err.Error(), "andersen-only") {
			t.Errorf("Races on degraded tier: err = %v, want precision-gated refusal", err)
		}
		if reports := a.Leaks(); reports != nil {
			t.Errorf("Leaks on Andersen-only tier = %v, want nil", reports)
		}
		fsam.SetTestPhaseWrap(nil)
	}
}

// TestDeadlineInsideSparsePhase: a deadline that expires mid-solve (after
// the pre-analysis) still yields a usable, labeled tier — never a
// zero-value Result, never an escaped cancellation error.
func TestDeadlineInsideSparsePhase(t *testing.T) {
	for _, seq := range []bool{false, true} {
		wrapSparse(t, func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error {
			<-ctx.Done() // stall until the deadline fires, then solve
			return orig.Run(ctx, st)
		})
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		a, err := fsam.AnalyzeSourceCtx(ctx, "test.mc", ladderSrc, fsam.Config{Sequential: seq})
		cancel()
		if err != nil {
			t.Fatalf("Sequential=%v: %v", seq, err)
		}
		if a.Precision != fsam.PrecisionThreadObliviousFS && a.Precision != fsam.PrecisionAndersenOnly {
			t.Fatalf("Sequential=%v: precision = %s, want a degraded tier", seq, a.Precision)
		}
		if !strings.Contains(a.Stats.Degraded, "out of time") {
			t.Errorf("Degraded = %q, want out-of-time reason", a.Stats.Degraded)
		}
		if a.Base == nil || a.Prog == nil {
			t.Fatalf("Sequential=%v: zero-value Analysis", seq)
		}
		checkSubsetOfAndersen(t, a, "p", "q", "r", "c")
		fsam.SetTestPhaseWrap(nil)
	}
}

// TestNoDegradeSurfacesFault: with the ladder disabled, the contained
// panic surfaces as a *pipeline.PhaseError for the caller to handle.
func TestNoDegradeSurfacesFault(t *testing.T) {
	wrapSparse(t, func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error {
		panic("injected sparse fault")
	})
	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{NoDegrade: true})
	if err == nil || !pipeline.ErrPanicked(err) {
		t.Fatalf("err = %v, want contained panic", err)
	}
	if a == nil || a.Base == nil {
		t.Fatal("partial Analysis missing alongside NoDegrade error")
	}
	if a.Precision != fsam.PrecisionNone {
		t.Errorf("precision = %s, want %s on NoDegrade failure", a.Precision, fsam.PrecisionNone)
	}
}

// TestBudgetTripRendersInDegradedReason: an over-budget trip names the
// phase and wraps ErrOverBudget semantics into the reason string.
func TestBudgetTripRendersInDegradedReason(t *testing.T) {
	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{StepLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Precision == fsam.PrecisionSparseFS || a.Precision == fsam.PrecisionNone {
		t.Fatalf("precision = %s, want a degraded tier", a.Precision)
	}
	if !strings.Contains(a.Stats.Degraded, "over budget") {
		t.Errorf("Degraded = %q, want over-budget reason", a.Stats.Degraded)
	}
}

// TestDegradedPhaseAccounting: when sparse trips its budget, Stats.Phases
// lists the failed attempt's completed phases followed by the landing
// rung's (so the re-run defuse appears twice), Total() is the sum of the
// top-level entries, and fsamd's phase counters grow by that same total.
func TestDegradedPhaseAccounting(t *testing.T) {
	var calls atomic.Int32
	wrapSparse(t, func(orig pipeline.Phase, ctx context.Context, st *pipeline.State) error {
		if calls.Add(1) == 1 {
			return fmt.Errorf("injected: %w", engine.ErrOverBudget)
		}
		return orig.Run(ctx, st)
	})
	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Precision != fsam.PrecisionThreadObliviousFS || !strings.Contains(a.Stats.Degraded, "over budget") {
		t.Fatalf("precision = %s, degraded = %q; want a thread-oblivious landing after a budget trip", a.Precision, a.Stats.Degraded)
	}
	var names []string
	var sum time.Duration
	for _, p := range a.Stats.Phases {
		names = append(names, p.Name)
		if !p.Subphase() {
			sum += p.Time
		}
	}
	want := []string{"compile", "preanalysis", "threadmodel", "escape", "interleave", "locks", "defuse", "defuse", "sparse"}
	if !slices.Equal(sortedPrefix(names, 3, 6), sortedPrefix(want, 3, 6)) {
		t.Errorf("phases = %v, want %v (interference phases in any order)", names, want)
	}
	if a.Stats.Total() != sum {
		t.Errorf("Total() = %v, sum of top-level entries = %v", a.Stats.Total(), sum)
	}

	// The same degraded run served by fsamd: the phase counters grow by
	// the run's total, which the response's phase_seconds also sums to.
	calls.Store(0)
	ts := httptest.NewServer(server.New(server.Options{}).Handler())
	defer ts.Close()
	cl := client.New(ts.URL)
	resp, err := cl.Analyze(context.Background(), server.AnalyzeRequest{Name: "test.mc", Source: ladderSrc})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded == "" {
		t.Fatalf("served run did not degrade: %+v", resp)
	}
	var total float64
	for name, s := range resp.PhaseSeconds {
		if !strings.Contains(name, ".") {
			total += s
		}
	}
	m, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := harness.PromSum(harness.ParsePromText(m), "fsamd_phase_seconds_total"); math.Abs(got-total) > 1e-9 {
		t.Errorf("fsamd_phase_seconds_total sums to %g, the run's phases to %g", got, total)
	}
}

// sortedPrefix returns names with names[i:j] sorted (phases the manager
// may complete in either order).
func sortedPrefix(names []string, i, j int) []string {
	out := slices.Clone(names)
	if len(out) >= j {
		slices.Sort(out[i:j])
	}
	return out
}
