package fsam_test

// Differential soundness gate for the thread-escape pruning oracle: over
// the whole fixture corpus, EscapePrune on versus off must be
// byte-identical on every externally observable result — points-to sets,
// races, leaks, and the rendered diagnostics — while the pruned runs
// actually skip work somewhere in the corpus (a prune that never fires
// gates nothing).

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	fsam "repro"
	"repro/internal/diag"
	"repro/internal/ir"
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

func TestEscapePruneCorpusDifferential(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	sort.Strings(paths)
	totalPruned := 0
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.ToSlash(path)
		on, err := fsam.AnalyzeSource(name, string(src), fsam.Config{})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		off, err := fsam.AnalyzeSource(name, string(src),
			fsam.Config{EscapePrune: fsam.EscapePruneOff})
		if err != nil {
			t.Fatalf("%s (off): %v", path, err)
		}
		if off.Stats.EscapePrunedEdges != 0 {
			t.Errorf("%s: off run pruned %d edges", path, off.Stats.EscapePrunedEdges)
		}
		if got := on.Stats.EscapeLocal + on.Stats.EscapeHandedOff +
			on.Stats.EscapeShared; got != len(on.Prog.Objects) {
			t.Errorf("%s: escape counters cover %d of %d objects",
				path, got, len(on.Prog.Objects))
		}
		totalPruned += on.Stats.EscapePrunedEdges
		if a, b := observableState(t, path, on), observableState(t, path, off); a != b {
			t.Errorf("%s: pruned and unpruned runs differ\n--- on ---\n%s--- off ---\n%s",
				path, a, b)
		}
	}
	if totalPruned == 0 {
		t.Error("EscapePrune skipped zero interference edges across the whole corpus")
	}
}
