package fsam_test

// Differential soundness gates for the thread-escape pruning oracle: over
// the whole fixture corpus and 200 random threaded programs, the default
// (pruned) run and an unpruned reference run must be byte-identical on
// every externally observable result — points-to sets, races, leaks, and
// the rendered diagnostics — while the pruned runs actually skip work (a
// prune that never fires gates nothing). The reference withholds the
// oracle from the def-use and tmod phases through the test phase hook; the
// race detector's own unpruned path is compared in internal/race.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	fsam "repro"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/randprog"
	"repro/internal/solver"
)

// observableState renders everything a client can observe from a.
func observableState(t *testing.T, path string, a *fsam.Analysis) string {
	t.Helper()
	var buf bytes.Buffer
	var globals []string
	for _, o := range a.Prog.Objects {
		if o.Kind == ir.ObjGlobal {
			globals = append(globals, o.Name)
		}
	}
	sort.Strings(globals)
	for _, g := range globals {
		if pt, err := a.PointsToGlobal(g); err == nil {
			fmt.Fprintf(&buf, "pt %s = %v\n", g, pt)
		}
	}
	res, err := a.Diagnostics()
	if err != nil {
		t.Fatalf("%s: Diagnostics: %v", path, err)
	}
	for _, id := range []string{"race", "leak"} {
		if reason, ok := res.Skipped[id]; ok {
			t.Fatalf("%s: %s checker skipped: %s", path, id, reason)
		}
	}
	for _, d := range res.Diags {
		if d.Checker == "race" || d.Checker == "leak" {
			fmt.Fprintf(&buf, "%s %s\n", d.Checker, d.Fingerprint)
		}
	}
	if err := diag.WriteText(&buf, res.Diags); err != nil {
		t.Fatalf("%s: WriteText: %v", path, err)
	}
	return buf.String()
}

// analyzeUnpruned runs the default configuration with the escape result
// hidden from the def-use and tmod phases, which then build and solve
// with a nil oracle: the unpruned reference.
func analyzeUnpruned(t *testing.T, name, src string) *fsam.Analysis {
	t.Helper()
	fsam.SetTestPhaseWrap(func(p solver.Phase) solver.Phase {
		if p.Name != fsam.PhaseDefUse && p.Name != fsam.PhaseTmod {
			return p
		}
		run := p.Run
		p.Run = func(ctx context.Context, st *solver.State) error {
			esc := st.Escape
			st.Escape = nil
			defer func() { st.Escape = esc }()
			return run(ctx, st)
		}
		return p
	})
	defer fsam.SetTestPhaseWrap(nil)
	a, err := fsam.AnalyzeSource(name, src, fsam.Config{})
	if err != nil {
		t.Fatalf("%s (unpruned): %v", name, err)
	}
	if a.Stats.EscapePrunedEdges != 0 {
		t.Fatalf("%s: unpruned run pruned %d edges", name, a.Stats.EscapePrunedEdges)
	}
	return a
}

// checkPruneIdentical compares the pruned and unpruned runs of src and
// returns the work the pruned run skipped.
func checkPruneIdentical(t *testing.T, name, src string) int {
	t.Helper()
	on, err := fsam.AnalyzeSource(name, src, fsam.Config{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	off := analyzeUnpruned(t, name, src)
	if got := on.Stats.EscapeLocal + on.Stats.EscapeHandedOff +
		on.Stats.EscapeShared; got != len(on.Prog.Objects) {
		t.Errorf("%s: escape counters cover %d of %d objects", name, got, len(on.Prog.Objects))
	}
	if a, b := observableState(t, name, on), observableState(t, name, off); a != b {
		t.Errorf("%s: pruned and unpruned runs differ\n--- pruned ---\n%s--- unpruned ---\n%s\n%s",
			name, a, b, src)
	}
	return on.Stats.EscapePrunedEdges
}

func TestEscapePruneCorpusDifferential(t *testing.T) {
	totalPruned := 0
	for _, path := range corpusPaths(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		totalPruned += checkPruneIdentical(t, filepath.ToSlash(path), string(src))
	}
	if totalPruned == 0 {
		t.Error("escape pruning skipped zero interference edges across the whole corpus")
	}
}

// TestEscapePruneDifferential is the corpus differential over random
// threaded programs.
func TestEscapePruneDifferential(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	totalPruned := 0
	for seed := int64(0); seed < seeds; seed++ {
		totalPruned += checkPruneIdentical(t, fmt.Sprintf("seed%d.mc", seed), randprog.Threaded(seed, 3))
	}
	if totalPruned == 0 {
		t.Error("escape pruning skipped zero interference edges on every random program")
	}
}
