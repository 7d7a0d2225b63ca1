package fsam_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	fsam "repro"
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

// analyzeBase runs a from-scratch analysis to delta against.
func analyzeBase(t *testing.T, src string, cfg fsam.Config) *fsam.Analysis {
	t.Helper()
	a, err := fsam.AnalyzeSource("prog.mc", src, cfg)
	if err != nil {
		t.Fatalf("base analysis: %v", err)
	}
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
// every function unchanged, and an Analysis sharing the base's results
// that answers under the patch's file name.
func TestDeltaNoop(t *testing.T) {
	base := analyzeBase(t, deltaSrc, fsam.Config{})
	patched := strings.Replace(deltaSrc, "int main() {", "/* tweak */\n\nint main() {", 1)

	a, rep, err := fsam.AnalyzeDelta(base, "edited.mc", patched)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	if rep.Tier != fsam.DeltaNoop {
		t.Fatalf("tier = %s (iso note %q), want noop", rep.Tier, rep.IsoNote)
	}
	if a == base || a.Prog != base.Prog || a.Result != base.Result || a.Graph != base.Graph {
		t.Fatalf("noop tier did not share the base analysis' results")
	}
	// Every exported field but the file name is the base's, so a field
	// added to Analysis cannot silently go missing from the noop tier.
	av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(base).Elem()
	for i := 0; i < av.NumField(); i++ {
		f := av.Type().Field(i)
		if f.IsExported() && f.Name != "SourceName" && !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			t.Errorf("noop tier does not share the base's %s", f.Name)
		}
	}
	if a.SourceName != "edited.mc" {
		t.Fatalf("noop tier answers as %q, want the patch's name", a.SourceName)
	}
	if len(rep.PhasesRun) != 0 || len(a.Stats.Phases) != len(base.Stats.Phases) {
		t.Fatalf("noop tier ran phases: %v", rep.PhasesRun)
	}
	if rep.AdoptedFuncs != 3 || len(rep.ChangedFuncs) != 0 || len(rep.RemovedFuncs) != 0 {
		t.Fatalf("noop diff: adopted %d, changed %v, removed %v; want 3 adopted and nothing else",
			rep.AdoptedFuncs, rep.ChangedFuncs, rep.RemovedFuncs)
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
		return fmt.Sprintf("oblivious=%d thread=%d stored=%d hubs=%d lock=%d vf=%d escape=%d pruned=%d local=%d handedoff=%d shared=%d",
			g.ObliviousEdges, g.ThreadEdges, g.StoredThreadEdges, g.ThreadHubs,
			g.FilteredByLock, g.FilteredByVF, g.FilteredByEscape, a.Stats.EscapePrunedEdges,
			a.Stats.EscapeLocal, a.Stats.EscapeHandedOff, a.Stats.EscapeShared)
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

// The canonical workload edit lands in the iso tier on every suite
// program at scales 1 and 4: exactly one function changes, only the glue
// phases run, the warm run adopts the base's Andersen result and sparse
// solve (the very same interned sets, not equal recomputed ones), and its
// answers fingerprint as a cold run of the edited source.
func TestDeltaCanonicalWorkloadEdit(t *testing.T) {
	wantPhases := []string{"preanalysis", "threadmodel", "escape", "locks", "interleave"}
	for _, scale := range []int{1, 4} {
		for _, spec := range workload.Suite {
			t.Run(fmt.Sprintf("%s@%d", spec.Name, scale), func(t *testing.T) {
				src, err := workload.Generate(spec.Name, scale)
				if err != nil {
					t.Fatalf("workload: %v", err)
				}
				base := analyzeBase(t, src, fsam.Config{})
				patched, line := harness.CanonicalEdit(src)
				if line < 0 {
					t.Fatalf("workload source has no filler line to edit")
				}
				warm, rep, err := fsam.AnalyzeDelta(base, "prog.mc", patched)
				if err != nil {
					t.Fatalf("delta: %v", err)
				}
				if rep.Tier != fsam.DeltaIso {
					t.Fatalf("canonical edit landed in tier %s (note %q), want iso", rep.Tier, rep.IsoNote)
				}
				if len(rep.ChangedFuncs) != 1 {
					t.Fatalf("canonical edit changed %v, want exactly one function", rep.ChangedFuncs)
				}
				if !slices.Equal(rep.PhasesRun, wantPhases) {
					t.Fatalf("iso tier ran %v, want %v", rep.PhasesRun, wantPhases)
				}
				for _, v := range base.Prog.Vars {
					b := base.Base.Pre.PointsToVar(v)
					if w := warm.Base.Pre.PointsToVar(warm.Prog.Vars[v.ID]); !b.IsEmpty() && w != b {
						t.Fatalf("Andersen set of %s was recomputed, not adopted", v.Name)
					}
				}
				for id := range base.Graph.Nodes {
					b := base.Result.PointsToNode(id)
					if w := warm.Result.PointsToNode(id); !b.IsEmpty() && w != b {
						t.Fatalf("sparse set of def-use node %d was recomputed, not adopted", id)
					}
				}
				scratch, err := fsam.AnalyzeSource("prog.mc", patched, fsam.Config{})
				if err != nil {
					t.Fatalf("scratch: %v", err)
				}
				if got, want := mustFingerprint(t, warm), mustFingerprint(t, scratch); got != want {
					t.Fatalf("canonical edit diverges from scratch")
				}
			})
		}
	}
}
