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
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/solver"
	"repro/internal/workload"
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
func wrapPhases(t *testing.T, names []string, run func(orig solver.Phase, ctx context.Context, st *solver.State) error) {
	t.Helper()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	fsam.SetTestPhaseWrap(func(p solver.Phase) solver.Phase {
		if !want[p.Name] {
			return p
		}
		orig := p
		p.Run = func(ctx context.Context, st *solver.State) error {
			return run(orig, ctx, st)
		}
		return p
	})
	t.Cleanup(func() { fsam.SetTestPhaseWrap(nil) })
}

// wrapSparse wraps the sparse phase only: fsam's solve, which no rung
// below it reruns.
func wrapSparse(t *testing.T, run func(orig solver.Phase, ctx context.Context, st *solver.State) error) {
	t.Helper()
	wrapPhases(t, []string{fsam.PhaseSparse}, run)
}

// checkGatedSkips: on a degraded tier the precision-gated race and leak
// checkers are skipped, not failed, and the race skip reason names tier.
func checkGatedSkips(t *testing.T, a *fsam.Analysis, tier string) {
	t.Helper()
	res, err := a.Diagnostics("race", "leak")
	if err != nil {
		t.Fatalf("Diagnostics on %s tier: %v", tier, err)
	}
	if reason := res.Skipped["race"]; !strings.Contains(reason, tier) {
		t.Errorf("race on %s tier: skip reason %q, want the tier named", tier, reason)
	}
	if _, ok := res.Skipped["leak"]; !ok {
		t.Errorf("leak on %s tier: not skipped (findings %v)", tier, res.Diags)
	}
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

// TestPersistentSparseFailureDegradesToTmod: a panic in the sparse solve
// is contained, and the ladder's first fallback — the thread-modular rung
// — lands. Its per-thread solves run their own phase over a rebuilt
// thread-oblivious def-use graph, so the injected fault cannot reach it:
// the sparse phase runs once and no fallback fails on the way down.
func TestPersistentSparseFailureDegradesToTmod(t *testing.T) {
	var calls atomic.Int32
	wrapSparse(t, func(orig solver.Phase, ctx context.Context, st *solver.State) error {
		calls.Add(1)
		panic("injected persistent fault")
	})
	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{})
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	if a.Precision != fsam.PrecisionThreadModularFS {
		t.Fatalf("precision = %s, want %s (degraded: %q)",
			a.Precision, fsam.PrecisionThreadModularFS, a.Stats.Degraded)
	}
	if a.Engine != "tmod" || a.Tmod == nil || a.Graph == nil {
		t.Fatalf("engine = %q, Tmod = %v, Graph = %v, want landed tmod rung",
			a.Engine, a.Tmod, a.Graph)
	}
	if !strings.Contains(a.Stats.Degraded, "panicked") || strings.Contains(a.Stats.Degraded, "fallback") {
		t.Errorf("Degraded = %q, want the original fault and no fallback failure", a.Stats.Degraded)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("sparse phase ran %d times, want 1", n)
	}
	checkSubsetOfAndersen(t, a, "p", "q", "r", "c")
}

// TestPersistentSparseFailureDegradesToCFGFree: when the sparse solve
// and the thread-modular rung both fail, the ladder lands on the CFG-free
// rung, which shares no sparse machinery with the failed tiers.
func TestPersistentSparseFailureDegradesToCFGFree(t *testing.T) {
	wrapPhases(t, []string{fsam.PhaseSparse, fsam.PhaseTmod},
		func(orig solver.Phase, ctx context.Context, st *solver.State) error {
			panic("injected persistent fault")
		})
	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{})
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	if a.Precision != fsam.PrecisionCFGFreeFS {
		t.Fatalf("precision = %s, want %s (degraded: %q)",
			a.Precision, fsam.PrecisionCFGFreeFS, a.Stats.Degraded)
	}
	if a.Engine != "cfgfree" || a.CFGFree == nil {
		t.Fatalf("engine = %q, CFGFree = %v, want landed cfgfree rung", a.Engine, a.CFGFree)
	}
	if !strings.Contains(a.Stats.Degraded, "panicked") ||
		!strings.Contains(a.Stats.Degraded, "tmod fallback") {
		t.Errorf("Degraded = %q, want original fault and the tmod fallback failure", a.Stats.Degraded)
	}
	checkGatedSkips(t, a, "cfgfree-fs")
	checkSubsetOfAndersen(t, a, "p", "q", "r", "c")
}

// TestPersistentFailureDegradesToAndersen: when every phase-running rung
// fails — the sparse, thread-modular and CFG-free solves alike — queries answer from
// the pre-analysis, with the full failure history in Stats.Degraded, and
// the precision-gated clients refuse cleanly instead of crashing.
func TestPersistentFailureDegradesToAndersen(t *testing.T) {
	wrapPhases(t, []string{fsam.PhaseSparse, fsam.PhaseTmod, fsam.PhaseCFGFree},
		func(orig solver.Phase, ctx context.Context, st *solver.State) error {
			panic("injected persistent fault")
		})
	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{})
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	if a.Precision != fsam.PrecisionAndersenOnly {
		t.Fatalf("precision = %s, want %s (degraded: %q)",
			a.Precision, fsam.PrecisionAndersenOnly, a.Stats.Degraded)
	}
	if !strings.Contains(a.Stats.Degraded, "panicked") ||
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
	checkGatedSkips(t, a, "andersen-only")
}

// TestDeadlineInsideSparsePhase: a deadline that expires mid-solve (after
// the pre-analysis) still yields a usable, labeled tier — never a
// zero-value Result, never an escaped cancellation error.
func TestDeadlineInsideSparsePhase(t *testing.T) {
	wrapSparse(t, func(orig solver.Phase, ctx context.Context, st *solver.State) error {
		<-ctx.Done() // stall until the deadline fires, then solve
		return orig.Run(ctx, st)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	a, err := fsam.AnalyzeSourceCtx(ctx, "test.mc", ladderSrc, fsam.Config{})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if a.Precision >= fsam.PrecisionSparseFS || a.Precision == fsam.PrecisionNone {
		t.Fatalf("precision = %s, want tmod or a lower tier", a.Precision)
	}
	if !strings.Contains(a.Stats.Degraded, "out of time") {
		t.Errorf("Degraded = %q, want out-of-time reason", a.Stats.Degraded)
	}
	if a.Base == nil || a.Prog == nil {
		t.Fatal("zero-value Analysis")
	}
	checkSubsetOfAndersen(t, a, "p", "q", "r", "c")
}

// TestNoDegradeSurfacesFault: with the ladder disabled, the contained
// panic surfaces as a *pipeline.PhaseError for the caller to handle.
func TestNoDegradeSurfacesFault(t *testing.T) {
	wrapSparse(t, func(orig solver.Phase, ctx context.Context, st *solver.State) error {
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
	wrapSparse(t, func(orig solver.Phase, ctx context.Context, st *solver.State) error {
		if calls.Add(1) == 1 {
			return fmt.Errorf("injected: %w", engine.ErrOverBudget)
		}
		return orig.Run(ctx, st)
	})
	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Precision != fsam.PrecisionThreadModularFS || !strings.Contains(a.Stats.Degraded, "over budget") {
		t.Fatalf("precision = %s, degraded = %q; want a thread-modular landing after a budget trip", a.Precision, a.Stats.Degraded)
	}
	var names []string
	var sum time.Duration
	for _, p := range a.Stats.Phases {
		if !p.Subphase() {
			names = append(names, p.Name)
			sum += p.Time
		}
	}
	want := []string{"compile", "preanalysis", "threadmodel", "escape", "locks", "interleave", "defuse", "defuse", "tmod"}
	if !slices.Equal(names, want) {
		t.Errorf("phases = %v, want %v", names, want)
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
	if got := metrics.PromSum(metrics.ParsePromText(m), "fsamd_phase_seconds_total"); math.Abs(got-total) > 1e-9 {
		t.Errorf("fsamd_phase_seconds_total sums to %g, the run's phases to %g", got, total)
	}
}

// TestStepLimitLandsOnMiddleRungs: the ladder's middle rungs answer for
// step limits that fsam cannot meet but a cheaper flow-sensitive engine
// can. Bisecting the smallest StepLimit at which each engine completes
// alone (NoDegrade) measured these windows:
//
//	program        fsam          tmod         cfgfree
//	dense1-8       26.6k-32.9k   3.4k-6.0k    18.8k-23.1k
//	radiosity@16   22.2k         8.0k         13.8k
//	radiosity@3    3035          1697         -
//	word_count@3   1654          1742         1199
//
// So radiosity@3 under 2000 steps lands on tmod, and word_count@3 under
// 1400 steps, which tmod cannot meet either, lands on cfgfree. The test
// fails when a rung stops earning its place on the ladder.
func TestStepLimitLandsOnMiddleRungs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		stepLimit int64
		want      fsam.Precision
	}{
		{"radiosity", 2000, fsam.PrecisionThreadModularFS},
		{"word_count", 1400, fsam.PrecisionCFGFreeFS},
	} {
		spec, ok := workload.ByName(tc.name)
		if !ok {
			t.Fatalf("unknown workload %q", tc.name)
		}
		a, err := fsam.AnalyzeSource(tc.name+".mc", workload.GenerateSpec(spec, 3), fsam.Config{StepLimit: tc.stepLimit})
		if err != nil {
			t.Fatalf("%s@3: %v", tc.name, err)
		}
		if a.Precision != tc.want {
			t.Errorf("%s@3 with StepLimit %d: precision = %s, want %s (degraded: %q)",
				tc.name, tc.stepLimit, a.Precision, tc.want, a.Stats.Degraded)
		}
	}
}
