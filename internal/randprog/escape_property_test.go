package randprog_test

import (
	"bytes"
	"fmt"
	"testing"

	fsam "repro"
	"repro/internal/diag"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/threads"
)

// escapeSnapshot reduces an analysis to the comparison surface the
// escape-prune differential demands be identical: points-to sets of every
// pointer global, the race and leak finding fingerprints, and the full
// rendered diagnostics.
func escapeSnapshot(t *testing.T, seed int64, a *fsam.Analysis) string {
	t.Helper()
	var buf bytes.Buffer
	for _, g := range pointerGlobals(a) {
		pt, err := a.PointsToGlobal(g)
		if err != nil {
			continue
		}
		fmt.Fprintf(&buf, "pt %s = %v\n", g, pt)
	}
	res, err := a.Diagnostics()
	if err != nil {
		t.Fatalf("seed %d: Diagnostics: %v", seed, err)
	}
	for _, id := range []string{"race", "leak"} {
		if reason, ok := res.Skipped[id]; ok {
			t.Fatalf("seed %d: %s checker skipped: %s", seed, id, reason)
		}
	}
	for _, d := range res.Diags {
		if d.Checker == "race" || d.Checker == "leak" {
			fmt.Fprintf(&buf, "%s %s\n", d.Checker, d.Fingerprint)
		}
	}
	if err := diag.WriteText(&buf, res.Diags); err != nil {
		t.Fatalf("seed %d: WriteText: %v", seed, err)
	}
	return buf.String()
}

// TestEscapePruneDifferential: the thread-escape pruning oracle is a pure
// work-skipping optimization for the default engine — EscapePrune on
// versus off yields byte-identical points-to sets, races, leaks, and
// diagnostics on random threaded programs, and the off run prunes
// nothing.
func TestEscapePruneDifferential(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Threaded(seed, 3)
		on, err := fsam.AnalyzeSource("esc.mc", src, fsam.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		off, err := fsam.AnalyzeSource("esc.mc", src,
			fsam.Config{EscapePrune: fsam.EscapePruneOff})
		if err != nil {
			t.Fatalf("seed %d (off): %v\n%s", seed, err, src)
		}
		if off.Stats.EscapePrunedEdges != 0 {
			t.Fatalf("seed %d: off run pruned %d edges",
				seed, off.Stats.EscapePrunedEdges)
		}
		if got := on.Stats.EscapeLocal + on.Stats.EscapeHandedOff +
			on.Stats.EscapeShared; got != len(on.Prog.Objects) {
			t.Fatalf("seed %d: escape counters cover %d of %d objects",
				seed, got, len(on.Prog.Objects))
		}
		if a, b := escapeSnapshot(t, seed, on), escapeSnapshot(t, seed, off); a != b {
			t.Errorf("seed %d: pruned and unpruned runs differ\n--- on ---\n%s--- off ---\n%s\n%s",
				seed, a, b, src)
		}
	}
}

// derefObjs collects the objects a thread's functions dereference through
// Load/Store/Lock/Unlock/Free, straight from the pre-analysis — an
// implementation-independent recomputation of the escape analysis's
// accessor relation.
func derefObjs(m *threads.Model, th *threads.Thread) map[ir.ObjID]bool {
	out := map[ir.ObjID]bool{}
	seen := map[*ir.Function]bool{}
	for fc := range m.Funcs(th) {
		if seen[fc.Func] {
			continue
		}
		seen[fc.Func] = true
		for _, blk := range fc.Func.Blocks {
			for _, s := range blk.Stmts {
				var addr *ir.Var
				switch a := s.(type) {
				case *ir.Load:
					addr = a.Addr
				case *ir.Store:
					addr = a.Addr
				case *ir.Lock:
					addr = a.Ptr
				case *ir.Unlock:
					addr = a.Ptr
				case *ir.Free:
					addr = a.Ptr
				default:
					continue
				}
				m.Pre.PointsToVar(addr).ForEach(func(id uint32) {
					out[ir.ObjID(id)] = true
				})
			}
		}
	}
	return out
}

// TestEscapeSharednessProperty: on random threaded programs, every object
// dereferenced by two may-happen-in-parallel threads is classified
// Shared. The accessor relation is recomputed here from the IR and the
// pre-analysis, independent of the escape package's own bookkeeping.
func TestEscapeSharednessProperty(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := randprog.Threaded(seed, 3)
		b, err := pipeline.FromSource("esc.mc", src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		r := escape.Analyze(b.Model)
		objsOf := make([]map[ir.ObjID]bool, len(b.Model.Threads))
		for i, th := range b.Model.Threads {
			objsOf[i] = derefObjs(b.Model, th)
		}
		for i, ta := range b.Model.Threads {
			for j, tb := range b.Model.Threads {
				if j < i || (i == j && !ta.Multi) {
					continue
				}
				if !b.Model.MayHappenInParallelThreads(ta, tb) {
					continue
				}
				for id := range objsOf[i] {
					if objsOf[j][id] && !r.IsShared(id) {
						t.Errorf("seed %d: object %s deref'd by MHP threads %s,%s but class %v\n%s",
							seed, b.Prog.Objects[id], ta, tb, r.ClassOf(id), src)
					}
				}
			}
		}
	}
}
