package randprog_test

import (
	"testing"

	fsam "repro"
	"repro/internal/randprog"
)

// TestSequentialExactness: on deterministic straight-line programs, FSAM's
// flow-sensitive result with strong updates must equal the concrete final
// state exactly — sound (⊇) and, on these programs, precise (⊆).
func TestSequentialExactness(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		src, want := randprog.Sequential(seed, 4, 4, 3, 25)
		a, err := fsam.AnalyzeSource("seq.mc", src, fsam.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for name, pointee := range want {
			got, err := a.PointsToGlobal(name)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if pointee == "" {
				if len(got) != 0 {
					t.Errorf("seed %d: pt(%s) = %v, want empty\n%s", seed, name, got, src)
				}
				continue
			}
			if len(got) != 1 || got[0] != pointee {
				t.Errorf("seed %d: pt(%s) = %v, want {%s}\n%s", seed, name, got, pointee, src)
			}
		}
	}
}

// TestSequentialBaselineSoundness: the NONSPARSE baseline must include the
// concrete value (soundness; it may be less precise).
func TestSequentialBaselineSoundness(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src, want := randprog.Sequential(seed, 4, 4, 3, 20)
		b, err := fsam.AnalyzeSource("seq.mc", src, fsam.Config{Engine: "nonsparse", NoDegrade: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for name, pointee := range want {
			if pointee == "" {
				continue
			}
			got, err := b.PointsToGlobal(name)
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, n := range got {
				if n == pointee {
					found = true
				}
			}
			if !found {
				t.Errorf("seed %d: baseline pt(%s) = %v, must contain %s\n%s",
					seed, name, got, pointee, src)
			}
		}
	}
}

// globalsOf lists the pointer globals of a threaded program (p<i>).
func pointerGlobals(a *fsam.Analysis) []string {
	var out []string
	for _, o := range a.Prog.Objects {
		if o.Kind.String() == "global" && len(o.Name) >= 2 && o.Name[0] == 'p' {
			out = append(out, o.Name)
		}
	}
	return out
}

// subset reports a ⊆ b.
func subset(a, b []string) bool {
	set := map[string]bool{}
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

// TestThreadedRefinement: on random multithreaded programs, FSAM's result
// must refine the Andersen pre-analysis on every pointer global.
func TestThreadedRefinement(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Threaded(seed, 3)
		a, err := fsam.AnalyzeSource("thr.mc", src, fsam.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		for _, g := range pointerGlobals(a) {
			fs, err1 := a.PointsToGlobal(g)
			fi, err2 := a.AndersenPointsToGlobal(g)
			if err1 != nil || err2 != nil {
				continue
			}
			if !subset(fs, fi) {
				t.Errorf("seed %d: FSAM pt(%s)=%v exceeds Andersen %v\n%s",
					seed, g, fs, fi, src)
			}
		}
	}
}

// TestAblationMonotonicity: each ablation only adds def-use edges, so its
// result must be a superset of full FSAM's on every pointer global.
func TestAblationMonotonicity(t *testing.T) {
	configs := map[string]fsam.Config{
		"NoInterleaving": {NoInterleaving: true},
		"NoValueFlow":    {NoValueFlow: true},
		"NoLock":         {NoLock: true},
	}
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Threaded(seed, 2)
		full, err := fsam.AnalyzeSource("thr.mc", src, fsam.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for label, cfg := range configs {
			abl, err := fsam.AnalyzeSource("thr.mc", src, cfg)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, label, err)
			}
			for _, g := range pointerGlobals(full) {
				fullPt, err1 := full.PointsToGlobal(g)
				ablPt, err2 := abl.PointsToGlobal(g)
				if err1 != nil || err2 != nil {
					continue
				}
				if !subset(fullPt, ablPt) {
					t.Errorf("seed %d: %s pt(%s)=%v misses values of full FSAM %v\n%s",
						seed, label, g, ablPt, fullPt, src)
				}
			}
		}
	}
}

// TestThreadedEdgeMonotonicity: ablations may only grow the thread-aware
// edge count.
func TestThreadedEdgeMonotonicity(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src := randprog.Threaded(seed, 3)
		full, err := fsam.AnalyzeSource("thr.mc", src, fsam.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []fsam.Config{{NoValueFlow: true}, {NoLock: true}} {
			abl, err := fsam.AnalyzeSource("thr.mc", src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if abl.Stats.ThreadEdges < full.Stats.ThreadEdges {
				t.Errorf("seed %d: ablation %+v has fewer thread edges (%d < %d)",
					seed, cfg, abl.Stats.ThreadEdges, full.Stats.ThreadEdges)
			}
		}
	}
}

// TestDeterministicAnalysis: two runs over the same threaded program give
// identical results and statistics.
func TestDeterministicAnalysis(t *testing.T) {
	src := randprog.Threaded(99, 3)
	a1, err := fsam.AnalyzeSource("thr.mc", src, fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := fsam.AnalyzeSource("thr.mc", src, fsam.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Stats.DefUseEdges != a2.Stats.DefUseEdges ||
		a1.Stats.Threads != a2.Stats.Threads {
		t.Errorf("stats differ: %+v vs %+v", a1.Stats, a2.Stats)
	}
	for _, g := range pointerGlobals(a1) {
		p1, _ := a1.PointsToGlobal(g)
		p2, _ := a2.PointsToGlobal(g)
		if !subset(p1, p2) || !subset(p2, p1) {
			t.Errorf("pt(%s) differs: %v vs %v", g, p1, p2)
		}
	}
}

// TestGenerationDeterministic: same seed, same program.
func TestGenerationDeterministic(t *testing.T) {
	a1, _ := randprog.Sequential(5, 3, 3, 2, 15)
	a2, _ := randprog.Sequential(5, 3, 3, 2, 15)
	if a1 != a2 {
		t.Error("Sequential not deterministic")
	}
	if randprog.Threaded(5, 2) != randprog.Threaded(5, 2) {
		t.Error("Threaded not deterministic")
	}
}
