package randprog_test

import (
	"testing"

	fsam "repro"
	"repro/internal/randprog"
)

// crossEngines is the soundness-ordered engine chain the differential
// tests exercise: each engine's points-to result must be a subset of the
// next, coarser one. The thread-modular engine is deliberately absent —
// its thread-granular interference and cfgfree's reachability gating are
// incomparable, so tmod_test.go orders it against fsam and Andersen on
// its own.
var crossEngines = []string{"fsam", "cfgfree", "andersen"}

// analyzeEngines runs src under every engine in crossEngines and fails the
// test if any engine degrades below its own tier (a degraded run would
// answer from a different rung and void the comparison).
func analyzeEngines(t *testing.T, seed int64, src string) []*fsam.Analysis {
	t.Helper()
	out := make([]*fsam.Analysis, 0, len(crossEngines))
	for _, eng := range crossEngines {
		a, err := fsam.AnalyzeSource("cross.mc", src, fsam.Config{Engine: eng})
		if err != nil {
			t.Fatalf("seed %d: engine %s: %v\n%s", seed, eng, err, src)
		}
		if a.Stats.Degraded != "" {
			t.Fatalf("seed %d: engine %s degraded (%s) on a tiny program",
				seed, eng, a.Stats.Degraded)
		}
		out = append(out, a)
	}
	return out
}

// TestCrossEngineGlobalSubset: per pointer global on random multithreaded
// programs, pt(sparse FSAM) ⊆ pt(cfgfree) ⊆ pt(Andersen). This is the
// precision ordering of the ladder — coarser engines may only over-
// approximate, never drop, a more precise engine's answer.
func TestCrossEngineGlobalSubset(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Threaded(seed, 3)
		runs := analyzeEngines(t, seed, src)
		for _, g := range pointerGlobals(runs[0]) {
			prev, err := runs[0].PointsToGlobal(g)
			if err != nil {
				continue
			}
			for i := 1; i < len(runs); i++ {
				next, err := runs[i].PointsToGlobal(g)
				if err != nil {
					t.Fatalf("seed %d: engine %s pt(%s): %v", seed, crossEngines[i], g, err)
				}
				if !subset(prev, next) {
					t.Errorf("seed %d: %s pt(%s)=%v exceeds %s pt=%v\n%s",
						seed, crossEngines[i-1], g, prev, crossEngines[i], next, src)
				}
				prev = next
			}
		}
	}
}

// TestCrossEngineVarSubset: the same subset chain per top-level SSA
// variable. Compilation is deterministic, so variable i and the object IDs
// its sets carry coincide across the per-engine runs of one program.
func TestCrossEngineVarSubset(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Threaded(seed, 2)
		runs := analyzeEngines(t, seed, src)
		for i := 1; i < len(runs); i++ {
			if len(runs[i].Prog.Vars) != len(runs[0].Prog.Vars) {
				t.Fatalf("seed %d: engine %s compiled %d vars, %s compiled %d",
					seed, crossEngines[i], len(runs[i].Prog.Vars),
					crossEngines[0], len(runs[0].Prog.Vars))
			}
		}
		for vi, v0 := range runs[0].Prog.Vars {
			prev := runs[0].PointsToVar(v0)
			for i := 1; i < len(runs); i++ {
				next := runs[i].PointsToVar(runs[i].Prog.Vars[vi])
				if !prev.SubsetOf(next) {
					t.Errorf("seed %d: var %s: %s pt=%s exceeds %s pt=%s\n%s",
						seed, v0, crossEngines[i-1], prev, crossEngines[i], next, src)
				}
				prev = next
			}
		}
	}
}

// TestCrossEngineSequentialExactness: on deterministic straight-line
// programs every engine must still contain the concrete final value
// (soundness holds at every tier, not just the sparse one).
func TestCrossEngineSequentialExactness(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src, want := randprog.Sequential(seed, 4, 4, 3, 20)
		runs := analyzeEngines(t, seed, src)
		for ei, a := range runs {
			for name, pointee := range want {
				if pointee == "" {
					continue
				}
				got, err := a.PointsToGlobal(name)
				if err != nil {
					t.Fatalf("seed %d: engine %s pt(%s): %v", seed, crossEngines[ei], name, err)
				}
				found := false
				for _, n := range got {
					if n == pointee {
						found = true
					}
				}
				if !found {
					t.Errorf("seed %d: engine %s pt(%s)=%v misses concrete value %s\n%s",
						seed, crossEngines[ei], name, got, pointee, src)
				}
			}
		}
	}
}

// TestCrossEngineTable1Agreement: the Table 1 shape metrics (pointer and
// statement counts) are facts about the compiled program, so every engine
// must report identical values — a divergence means an engine mutated the
// shared IR.
func TestCrossEngineTable1Agreement(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		src := randprog.Threaded(seed, 3)
		runs := analyzeEngines(t, seed, src)
		for i := 1; i < len(runs); i++ {
			if got, want := len(runs[i].Prog.Vars), len(runs[0].Prog.Vars); got != want {
				t.Errorf("seed %d: engine %s reports %d pointers, %s reports %d",
					seed, crossEngines[i], got, crossEngines[0], want)
			}
			if got, want := runs[i].Stats.Stmts, runs[0].Stats.Stmts; got != want {
				t.Errorf("seed %d: engine %s reports %d stmts, %s reports %d",
					seed, crossEngines[i], got, crossEngines[0], want)
			}
		}
	}
}
