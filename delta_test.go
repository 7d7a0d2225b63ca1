package fsam_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	fsam "repro"
	"repro/internal/facts"
	"repro/internal/harness"
	"repro/internal/randprog"
	"repro/internal/workload"
)

const deltaSrc = `
int g; int h; int k;
int *p; int *q;
lock_t m;

void helper(void) {
	q = &k;
}

void worker(void *arg) {
	lock(&m);
	*p = &g;
	unlock(&m);
	if (g > 3) { q = &g; } else { q = &h; }
}

int main() {
	p = &g;
	thread_t t;
	t = spawn(worker, NULL);
	helper();
	q = p;
	join(t);
	return 0;
}
`

// analyzeBase runs a from-scratch analysis with a private fact store so
// counter assertions are deterministic.
func analyzeBase(t *testing.T, src string, cfg fsam.Config) *fsam.Analysis {
	t.Helper()
	a, err := fsam.AnalyzeSource("prog.mc", src, cfg)
	if err != nil {
		t.Fatalf("base analysis: %v", err)
	}
	a.FactsStore = facts.NewStore(0)
	return a
}

func mustFingerprint(t *testing.T, a *fsam.Analysis) string {
	t.Helper()
	fp, err := harness.Fingerprint(a)
	if err != nil {
		t.Fatalf("fingerprint: %v", err)
	}
	return fp
}

// A comment/whitespace edit must adopt the base wholesale: zero phases,
// all-hit counters, and the very same Analysis value.
func TestDeltaNoop(t *testing.T) {
	base := analyzeBase(t, deltaSrc, fsam.Config{})
	patched := strings.Replace(deltaSrc, "int main() {", "/* tweak */\n\nint main() {", 1)

	a, rep, err := fsam.AnalyzeDelta(base, "prog.mc", patched)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if rep.Tier != fsam.DeltaNoop {
		t.Fatalf("tier = %s (iso note %q), want noop", rep.Tier, rep.IsoNote)
	}
	if a != base {
		t.Fatalf("noop tier did not adopt the base analysis")
	}
	if len(rep.PhasesRun) != 0 {
		t.Fatalf("noop tier ran phases: %v", rep.PhasesRun)
	}
	if len(rep.ImpactedFuncs) != 0 {
		t.Fatalf("noop tier impacted functions: %v", rep.ImpactedFuncs)
	}
	// Satellite: zero recomputation is visible in the store counters —
	// every function key hit, nothing missed or invalidated.
	if rep.Facts.Hits != 3 || rep.Facts.Misses != 0 || rep.Facts.Invalidations != 0 {
		t.Fatalf("noop counters = %s, want 3 hits and nothing else", rep.Facts)
	}
	if rep.ProgKey != rep.BaseProgKey {
		t.Fatalf("noop tier with differing prog keys: %s vs %s", rep.ProgKey, rep.BaseProgKey)
	}
	if pk, err := base.ProgKey(); err != nil || pk != rep.BaseProgKey {
		t.Fatalf("ProgKey() = %s, %v; want %s", pk, err, rep.BaseProgKey)
	}
}

// A constant tweak keeps the CFG isomorphic: the expensive phases are
// adopted by rebinding and only glue phases re-run, yet every observable
// answer equals a from-scratch analysis.
func TestDeltaIso(t *testing.T) {
	base := analyzeBase(t, deltaSrc, fsam.Config{})
	patched := strings.Replace(deltaSrc, "g > 3", "g > 9", 1)

	a, rep, err := fsam.AnalyzeDelta(base, "prog.mc", patched)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if rep.Tier != fsam.DeltaIso {
		t.Fatalf("tier = %s (iso note %q), want iso", rep.Tier, rep.IsoNote)
	}
	if got := rep.ChangedFuncs; len(got) != 1 || got[0] != "worker" {
		t.Fatalf("changed = %v, want [worker]", got)
	}
	if rep.AdoptedFuncs != 2 {
		t.Fatalf("adopted = %d, want 2", rep.AdoptedFuncs)
	}
	for _, p := range rep.PhasesRun {
		if p == fsam.PhaseDefUse || p == fsam.PhaseSparse {
			t.Fatalf("iso tier re-ran expensive phase %s (ran %v)", p, rep.PhasesRun)
		}
	}
	// worker spawns from main and helper is called by main: the undirected
	// closure plus mod/ref widening pulls all three in.
	if len(rep.ImpactedFuncs) == 0 {
		t.Fatalf("iso tier reports no impacted functions")
	}
	if rep.Facts.Invalidations != 1 {
		t.Fatalf("counters = %s, want exactly 1 invalidation", rep.Facts)
	}

	scratch, err := fsam.AnalyzeSource("prog.mc", patched, fsam.Config{})
	if err != nil {
		t.Fatalf("scratch: %v", err)
	}
	if got, want := mustFingerprint(t, a), mustFingerprint(t, scratch); got != want {
		t.Fatalf("iso result diverges from scratch:\n--- delta ---\n%s--- scratch ---\n%s", got, want)
	}
	// Diagnostics must carry the *new* source's positions on this tier.
	if a.Stats.Phase("compile") == 0 {
		t.Fatalf("delta analysis reports no compile time")
	}
}

// An iso delta rebinds the base's def-use graph instead of rebuilding it:
// the rebound graph must report the counters and representative table of a
// cold build of the edited program, escape pruning included.
func TestDeltaIsoGraphMatchesCold(t *testing.T) {
	base := analyzeBase(t, deltaSrc, fsam.Config{})
	patched := strings.Replace(deltaSrc, "g > 3", "g > 9", 1)
	a, rep, err := fsam.AnalyzeDelta(base, "prog.mc", patched)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if rep.Tier != fsam.DeltaIso {
		t.Fatalf("tier = %s (iso note %q), want iso", rep.Tier, rep.IsoNote)
	}
	cold, err := fsam.AnalyzeSource("prog.mc", patched, fsam.Config{})
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	counters := func(a *fsam.Analysis) string {
		g := a.Graph
		return fmt.Sprintf("oblivious=%d thread=%d lock=%d vf=%d escape=%d pruned=%d",
			g.ObliviousEdges, g.ThreadEdges, g.FilteredByLock, g.FilteredByVF, g.FilteredByEscape,
			a.Stats.EscapePrunedEdges)
	}
	if got, want := counters(a), counters(cold); got != want {
		t.Errorf("iso delta graph counters %s, cold %s", got, want)
	}
	if cold.Graph.FilteredByEscape == 0 {
		t.Errorf("program exercises no escape pruning; the check is vacuous")
	}
	if !slices.Equal(a.Graph.Rep, cold.Graph.Rep) {
		t.Errorf("iso delta graph's Rep differs from the cold build's")
	}
}

// A structural edit falls to the semantic tier and still matches scratch.
func TestDeltaSemantic(t *testing.T) {
	base := analyzeBase(t, deltaSrc, fsam.Config{})
	patched := strings.Replace(deltaSrc, "q = p;", "q = p;\n\t*q = &k;", 1)

	a, rep, err := fsam.AnalyzeDelta(base, "prog.mc", patched)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if rep.Tier != fsam.DeltaSemantic {
		t.Fatalf("tier = %s, want semantic", rep.Tier)
	}
	if rep.IsoNote == "" {
		t.Fatalf("semantic tier with empty iso note")
	}
	if len(rep.PhasesRun) == 0 {
		t.Fatalf("semantic tier ran no phases")
	}

	scratch, err := fsam.AnalyzeSource("prog.mc", patched, fsam.Config{})
	if err != nil {
		t.Fatalf("scratch: %v", err)
	}
	if got, want := mustFingerprint(t, a), mustFingerprint(t, scratch); got != want {
		t.Fatalf("semantic result diverges from scratch:\n--- delta ---\n%s--- scratch ---\n%s", got, want)
	}
}

// Chained deltas: each derived analysis is itself a valid base.
func TestDeltaChained(t *testing.T) {
	base := analyzeBase(t, deltaSrc, fsam.Config{})
	s1 := strings.Replace(deltaSrc, "g > 3", "g > 4", 1)
	a1, rep1, err := fsam.AnalyzeDelta(base, "prog.mc", s1)
	if err != nil {
		t.Fatalf("delta 1: %v", err)
	}
	if a1.FactsStore != base.FactsStore {
		t.Fatalf("derived analysis did not inherit the base store")
	}
	s2 := strings.Replace(s1, "g > 4", "g > 5", 1)
	a2, rep2, err := fsam.AnalyzeDelta(a1, "prog.mc", s2)
	if err != nil {
		t.Fatalf("delta 2: %v", err)
	}
	if rep1.Tier != fsam.DeltaIso || rep2.Tier != fsam.DeltaIso {
		t.Fatalf("tiers = %s, %s, want iso, iso", rep1.Tier, rep2.Tier)
	}
	if rep2.BaseProgKey != rep1.ProgKey {
		t.Fatalf("chain broke: base key %s, prior key %s", rep2.BaseProgKey, rep1.ProgKey)
	}
	scratch, err := fsam.AnalyzeSource("prog.mc", s2, fsam.Config{})
	if err != nil {
		t.Fatalf("scratch: %v", err)
	}
	if got, want := mustFingerprint(t, a2), mustFingerprint(t, scratch); got != want {
		t.Fatalf("chained delta diverges from scratch")
	}
}

// An analysis built without source text cannot be delta-keyed.
func TestDeltaRequiresSource(t *testing.T) {
	base := analyzeBase(t, deltaSrc, fsam.Config{})
	if _, _, err := fsam.AnalyzeDelta(nil, "prog.mc", deltaSrc); err == nil {
		t.Fatalf("nil base accepted")
	}
	// Malformed patch source surfaces as a parse error.
	if _, _, err := fsam.AnalyzeDelta(base, "prog.mc", "int main( {"); err == nil {
		t.Fatalf("malformed patch accepted")
	}
}

// Differential property test (satellite): random single-function edits of
// random threaded programs re-analyze to the same observable results as
// from-scratch, on every engine with an incremental rebind path and every
// edit class.
func TestDeltaDifferentialRandprog(t *testing.T) {
	engines := []string{"fsam", "cfgfree", "andersen"}
	kinds := []randprog.MutateKind{randprog.MutateComment, randprog.MutateConst, randprog.MutateStmt}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, eng := range engines {
		for _, seed := range seeds {
			src := randprog.Threaded(seed, 2)
			cfg := fsam.Config{Engine: eng}
			base, err := fsam.AnalyzeSource("prog.mc", src, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: base: %v", eng, seed, err)
			}
			base.FactsStore = facts.NewStore(0)
			for _, kind := range kinds {
				patched, fn := randprog.Mutate(seed, src, kind)
				a, rep, err := fsam.AnalyzeDelta(base, "prog.mc", patched)
				if err != nil {
					t.Fatalf("%s seed %d %s(%s): delta: %v", eng, seed, kind, fn, err)
				}
				scratch, err := fsam.AnalyzeSource("prog.mc", patched, cfg)
				if err != nil {
					t.Fatalf("%s seed %d %s: scratch: %v", eng, seed, kind, err)
				}
				got, err := harness.Fingerprint(a)
				if err != nil {
					t.Fatalf("%s seed %d %s: fingerprint delta: %v", eng, seed, kind, err)
				}
				want, err := harness.Fingerprint(scratch)
				if err != nil {
					t.Fatalf("%s seed %d %s: fingerprint scratch: %v", eng, seed, kind, err)
				}
				if got != want {
					t.Errorf("%s seed %d %s edit of %s (tier %s, note %q): delta diverges from scratch\n--- delta ---\n%s--- scratch ---\n%s",
						eng, seed, kind, fn, rep.Tier, rep.IsoNote, got, want)
				}
				if kind == randprog.MutateComment && rep.Tier != fsam.DeltaNoop {
					t.Errorf("%s seed %d: comment edit landed in tier %s (note %q), want noop",
						eng, seed, rep.Tier, rep.IsoNote)
				}
			}
		}
	}
}

// The canonical workload edit lands in the iso tier and reuses the
// expensive phases on the real benchmark generator's output.
func TestDeltaCanonicalWorkloadEdit(t *testing.T) {
	src, err := workload.Generate("x264", 1)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	base := analyzeBase(t, src, fsam.Config{})
	patched, line := harness.CanonicalEdit(src)
	if line < 0 {
		t.Fatalf("workload source has no filler line to edit")
	}
	a, rep, err := fsam.AnalyzeDelta(base, "prog.mc", patched)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if rep.Tier != fsam.DeltaIso {
		t.Fatalf("canonical edit landed in tier %s (note %q), want iso", rep.Tier, rep.IsoNote)
	}
	if len(rep.ChangedFuncs) != 1 {
		t.Fatalf("canonical edit changed %v, want exactly one function", rep.ChangedFuncs)
	}
	scratch, err := fsam.AnalyzeSource("prog.mc", patched, fsam.Config{})
	if err != nil {
		t.Fatalf("scratch: %v", err)
	}
	if got, want := mustFingerprint(t, a), mustFingerprint(t, scratch); got != want {
		t.Fatalf("canonical edit diverges from scratch")
	}
}
