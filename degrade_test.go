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

// wrapPhases installs a test wrapper around the named phases and removes
// it on cleanup.
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

// wrapSparse wraps the sparse phase only: fsam's solve.
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

// checkAndersenLanding: a degraded run is labeled andersen-only, holds no
// engine-specific result, and answers every query with the Andersen sets
// exactly; the precision-gated clients refuse cleanly instead of
// crashing.
func checkAndersenLanding(t *testing.T, a *fsam.Analysis, globals ...string) {
	t.Helper()
	if a.Precision != fsam.PrecisionAndersenOnly || a.Engine != "andersen" {
		t.Fatalf("landed on %s at %s, want andersen at %s (degraded: %q)",
			a.Engine, a.Precision, fsam.PrecisionAndersenOnly, a.Stats.Degraded)
	}
	if a.Graph != nil || a.Result != nil || a.NS != nil || a.CFGFree != nil || a.Tmod != nil {
		t.Errorf("degraded run kept a failed tier's result: Graph %v, Result %v, NS %v, CFGFree %v, Tmod %v",
			a.Graph != nil, a.Result != nil, a.NS != nil, a.CFGFree != nil, a.Tmod != nil)
	}
	for _, g := range globals {
		pt, err := a.PointsToGlobal(g)
		if err != nil {
			t.Fatalf("pt(%s): %v", g, err)
		}
		ai, err := a.AndersenPointsToGlobal(g)
		if err != nil {
			t.Fatalf("andersen pt(%s): %v", g, err)
		}
		if !slices.Equal(pt, ai) {
			t.Errorf("Andersen-only pt(%s) = %v, want Andersen's %v", g, pt, ai)
		}
	}
	checkGatedSkips(t, a, "andersen-only")
}

// TestPersistentFailureDegradesToAndersen: a panic in the sparse solve is
// contained and the run lands on the Andersen result the pre-analysis
// already computed. No other engine runs: the sparse phase runs once, and
// Stats.Degraded names the fault and nothing else.
func TestPersistentFailureDegradesToAndersen(t *testing.T) {
	var calls atomic.Int32
	wrapSparse(t, func(orig solver.Phase, ctx context.Context, st *solver.State) error {
		calls.Add(1)
		panic("injected persistent fault")
	})
	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{})
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	checkAndersenLanding(t, a, "p", "q", "r", "c")
	if want := "phase sparse panicked: injected persistent fault"; a.Stats.Degraded != want {
		t.Errorf("Degraded = %q, want %q", a.Stats.Degraded, want)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("sparse phase ran %d times, want 1", n)
	}
}

// checkSubsetOfAndersen: a tier above Andersen answers within the sound
// Andersen sets.
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
		for _, n := range pt {
			if !slices.Contains(ai, n) {
				t.Errorf("pt(%s) = %v outside Andersen %v", g, pt, ai)
			}
		}
	}
}

// TestPersistentSparseFailureDegradesToTmod: the thread-modular tier is
// no longer reached by degrading a failed fsam run; it is asked for. A
// persistent fault in fsam's sparse solve cannot reach it, since tmod's
// per-thread solves run their own phase over a rebuilt thread-oblivious
// def-use graph: with Engine tmod the run completes undegraded at its own
// tier without running the sparse phase. Under the default engine the
// same fault lands on Andersen and tmod's phase never runs.
func TestPersistentSparseFailureDegradesToTmod(t *testing.T) {
	// The sparse phase faults; tmod's phase is counted and runs as usual.
	calls := map[string]*atomic.Int32{fsam.PhaseSparse: new(atomic.Int32), fsam.PhaseTmod: new(atomic.Int32)}
	wrapPhases(t, []string{fsam.PhaseSparse, fsam.PhaseTmod}, func(orig solver.Phase, ctx context.Context, st *solver.State) error {
		calls[orig.Name].Add(1)
		if orig.Name == fsam.PhaseTmod {
			return orig.Run(ctx, st)
		}
		panic("injected persistent fault")
	})

	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{Engine: "tmod"})
	if err != nil {
		t.Fatalf("tmod run errored: %v", err)
	}
	if a.Precision != fsam.PrecisionThreadModularFS || a.Engine != "tmod" || a.Tmod == nil || a.Graph == nil {
		t.Fatalf("engine %q at %s (Tmod %v, Graph %v, degraded %q), want an undegraded tmod run",
			a.Engine, a.Precision, a.Tmod != nil, a.Graph != nil, a.Stats.Degraded)
	}
	if a.Stats.Degraded != "" {
		t.Errorf("Degraded = %q, want none", a.Stats.Degraded)
	}
	if s, tm := calls[fsam.PhaseSparse].Load(), calls[fsam.PhaseTmod].Load(); s != 0 || tm == 0 {
		t.Errorf("sparse ran %d and tmod %d times under tmod, want 0 and at least 1", s, tm)
	}
	checkSubsetOfAndersen(t, a, "p", "q", "r", "c")

	calls[fsam.PhaseTmod].Store(0)
	a, err = fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{})
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	checkAndersenLanding(t, a, "p", "q", "r", "c")
	if n := calls[fsam.PhaseTmod].Load(); n != 0 {
		t.Errorf("tmod phase ran %d times after the sparse fault, want 0", n)
	}
}

// TestPersistentSparseFailureDegradesToCFGFree: the CFG-free tier shares
// no sparse or thread-modular machinery, so with faults in both of those
// solves Engine cfgfree still completes undegraded at cfgfree-fs, within
// the Andersen sets and with the precision-gated checkers skipped. Under
// the default engine neither tmod nor cfgfree runs after the sparse
// fault: the run lands on Andersen with only that fault as its reason.
func TestPersistentSparseFailureDegradesToCFGFree(t *testing.T) {
	// The sparse and tmod phases fault; cfgfree's is counted and runs as usual.
	calls := map[string]*atomic.Int32{fsam.PhaseSparse: new(atomic.Int32), fsam.PhaseTmod: new(atomic.Int32)}
	var cfgfree atomic.Int32
	wrapPhases(t, []string{fsam.PhaseSparse, fsam.PhaseTmod, fsam.PhaseCFGFree}, func(orig solver.Phase, ctx context.Context, st *solver.State) error {
		if orig.Name == fsam.PhaseCFGFree {
			cfgfree.Add(1)
			return orig.Run(ctx, st)
		}
		calls[orig.Name].Add(1)
		panic("injected persistent fault")
	})

	a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{Engine: "cfgfree"})
	if err != nil {
		t.Fatalf("cfgfree run errored: %v", err)
	}
	if a.Precision != fsam.PrecisionCFGFreeFS || a.Engine != "cfgfree" || a.CFGFree == nil {
		t.Fatalf("engine %q at %s (CFGFree %v, degraded %q), want an undegraded cfgfree run",
			a.Engine, a.Precision, a.CFGFree != nil, a.Stats.Degraded)
	}
	if a.Stats.Degraded != "" {
		t.Errorf("Degraded = %q, want none", a.Stats.Degraded)
	}
	if s, tm, cf := calls[fsam.PhaseSparse].Load(), calls[fsam.PhaseTmod].Load(), cfgfree.Load(); s != 0 || tm != 0 || cf == 0 {
		t.Errorf("sparse ran %d, tmod %d and cfgfree %d times under cfgfree, want 0, 0 and at least 1", s, tm, cf)
	}
	checkGatedSkips(t, a, "cfgfree-fs")
	checkSubsetOfAndersen(t, a, "p", "q", "r", "c")

	cfgfree.Store(0)
	a, err = fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{})
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	checkAndersenLanding(t, a, "p", "q", "r", "c")
	if tm, cf := calls[fsam.PhaseTmod].Load(), cfgfree.Load(); tm != 0 || cf != 0 {
		t.Errorf("tmod ran %d and cfgfree %d times after the sparse fault, want 0 and 0", tm, cf)
	}
	if want := "phase sparse panicked: injected persistent fault"; a.Stats.Degraded != want {
		t.Errorf("Degraded = %q, want %q", a.Stats.Degraded, want)
	}
}

// TestEngineFailuresLandOnAndersen: every engine that runs phases after
// the pre-analysis — tmod, cfgfree and nonsparse as much as fsam — lands
// on Andersen when its own solve fails.
func TestEngineFailuresLandOnAndersen(t *testing.T) {
	for _, tc := range []struct{ engine, phase string }{
		{"tmod", fsam.PhaseTmod},
		{"cfgfree", fsam.PhaseCFGFree},
		{"nonsparse", fsam.PhaseNonSparse},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			wrapPhases(t, []string{tc.phase}, func(orig solver.Phase, ctx context.Context, st *solver.State) error {
				panic("injected fault")
			})
			a, err := fsam.AnalyzeSource("test.mc", ladderSrc, fsam.Config{Engine: tc.engine})
			if err != nil {
				t.Fatalf("degraded run errored: %v", err)
			}
			checkAndersenLanding(t, a, "p", "q", "r", "c")
			if want := "phase " + tc.phase + " panicked: injected fault"; a.Stats.Degraded != want {
				t.Errorf("Degraded = %q, want %q", a.Stats.Degraded, want)
			}
		})
	}
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
	if a.Base == nil || a.Prog == nil {
		t.Fatal("zero-value Analysis")
	}
	checkAndersenLanding(t, a, "p", "q", "r", "c")
	if !strings.Contains(a.Stats.Degraded, "out of time") {
		t.Errorf("Degraded = %q, want out-of-time reason", a.Stats.Degraded)
	}
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
	checkAndersenLanding(t, a, "c")
	if !strings.Contains(a.Stats.Degraded, "over budget") {
		t.Errorf("Degraded = %q, want over-budget reason", a.Stats.Degraded)
	}
}

// TestDegradedPhaseAccounting: when sparse trips its budget, Stats.Phases
// lists the phases that completed before it, each once (the landing runs
// no phase), Total() is the sum of the top-level entries, and fsamd's
// phase counters grow by that same total.
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
	if a.Precision != fsam.PrecisionAndersenOnly || !strings.Contains(a.Stats.Degraded, "over budget") {
		t.Fatalf("precision = %s, degraded = %q; want an Andersen landing after a budget trip", a.Precision, a.Stats.Degraded)
	}
	var names []string
	var sum time.Duration
	for _, p := range a.Stats.Phases {
		if !p.Subphase() {
			names = append(names, p.Name)
			sum += p.Time
		}
	}
	want := []string{"compile", "preanalysis", "threadmodel", "escape", "locks", "interleave", "defuse"}
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

// TestStepLimitIsRunWide: StepLimit bounds the pops of the whole run,
// not of each fixpoint loop, and a trip lands on Andersen. radiosity@3's
// largest loop (fsam's sparse solve) needs 3,035 pops, so 3,040 was
// enough when each loop had a limit of its own; the run's loops together
// need more. 2,000 (radiosity@3) and 1,400 (word_count@3) once landed on
// the thread-modular and CFG-free engines.
func TestStepLimitIsRunWide(t *testing.T) {
	for _, tc := range []struct {
		name      string
		stepLimit int64
	}{
		{"radiosity", 3040},
		{"radiosity", 2000},
		{"word_count", 1400},
	} {
		spec, ok := workload.ByName(tc.name)
		if !ok {
			t.Fatalf("unknown workload %q", tc.name)
		}
		a, err := fsam.AnalyzeSource(tc.name+".mc", workload.GenerateSpec(spec, 3), fsam.Config{StepLimit: tc.stepLimit})
		if err != nil {
			t.Fatalf("%s@3: %v", tc.name, err)
		}
		if a.Precision != fsam.PrecisionAndersenOnly || !strings.Contains(a.Stats.Degraded, "over budget") {
			t.Errorf("%s@3 with StepLimit %d: precision = %s, want %s after a budget trip (degraded: %q)",
				tc.name, tc.stepLimit, a.Precision, fsam.PrecisionAndersenOnly, a.Stats.Degraded)
		}
	}
}

// TestNonSparseStepLimitIsOverBudget: a step-limit trip inside the
// NONSPARSE solve keeps its budget reason. The run lands on Andersen with
// "over budget" in the degraded reason, and under NoDegrade the error is
// an ErrOverBudget.
func TestNonSparseStepLimitIsOverBudget(t *testing.T) {
	spec, ok := workload.ByName("radiosity")
	if !ok {
		t.Fatal("unknown workload radiosity")
	}
	src := workload.GenerateSpec(spec, 3)
	cfg := fsam.Config{Engine: "nonsparse", StepLimit: 500}
	a, err := fsam.AnalyzeSource("radiosity.mc", src, cfg)
	if err != nil || a.Precision != fsam.PrecisionAndersenOnly || !strings.Contains(a.Stats.Degraded, "over budget") {
		t.Errorf("err = %v, precision = %s, degraded = %q; want an over-budget Andersen landing",
			err, a.Precision, a.Stats.Degraded)
	}
	cfg.NoDegrade = true
	if _, err := fsam.AnalyzeSource("radiosity.mc", src, cfg); !pipeline.ErrOverBudget(err) {
		t.Errorf("NoDegrade: err = %v, want ErrOverBudget", err)
	}
}
