package randprog_test

// Differential properties of the thread-modular interference engine.
// Thread-modular composition is coarser than FSAM's statement-level
// interleaving reasoning but still a sound refinement of Andersen, and its
// memory-model gate only ever widens from sc to tso to pso, so per query
//
//	pt(fsam) ⊆ pt(tmod@sc) ⊆ pt(tmod@tso) ⊆ pt(tmod@pso) ⊆ pt(andersen)
//
// must hold on every program. (cfgfree is absent from this chain: its
// reachability gating and tmod's interference gating are incomparable
// approximations.) On single-thread programs the whole interference
// machinery must vanish: one thread, one slice, no gated absorption under
// any model — tmod's answer is exactly fsam's.

import (
	"testing"

	fsam "repro"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/tmod"
	"repro/internal/vfg"
)

// tmodChain is the soundness-ordered (engine, memmodel) chain.
var tmodChain = []struct{ engine, memModel string }{
	{"fsam", "sc"},
	{"tmod", "sc"},
	{"tmod", "tso"},
	{"tmod", "pso"},
	{"andersen", "sc"},
}

// analyzeTmodChain runs src under every configuration in tmodChain,
// failing on degradation (a degraded run answers from a different rung and
// voids the comparison).
func analyzeTmodChain(t *testing.T, seed int64, src string) []*fsam.Analysis {
	t.Helper()
	out := make([]*fsam.Analysis, 0, len(tmodChain))
	for _, c := range tmodChain {
		a, err := fsam.AnalyzeSource("tmodchain.mc", src, fsam.Config{Engine: c.engine, MemModel: c.memModel})
		if err != nil {
			t.Fatalf("seed %d: %s/%s: %v\n%s", seed, c.engine, c.memModel, err, src)
		}
		if a.Stats.Degraded != "" {
			t.Fatalf("seed %d: %s/%s degraded (%s) on a tiny program",
				seed, c.engine, c.memModel, a.Stats.Degraded)
		}
		out = append(out, a)
	}
	return out
}

// TestTmodGlobalSubsetChain: the per-global subset chain on random
// multithreaded programs.
func TestTmodGlobalSubsetChain(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		src := randprog.Threaded(seed, 3)
		runs := analyzeTmodChain(t, seed, src)
		for _, g := range pointerGlobals(runs[0]) {
			prev, err := runs[0].PointsToGlobal(g)
			if err != nil {
				continue
			}
			for i := 1; i < len(runs); i++ {
				next, err := runs[i].PointsToGlobal(g)
				if err != nil {
					t.Fatalf("seed %d: %s/%s pt(%s): %v", seed, tmodChain[i].engine, tmodChain[i].memModel, g, err)
				}
				if !subset(prev, next) {
					t.Errorf("seed %d: %s/%s pt(%s)=%v exceeds %s/%s pt=%v\n%s",
						seed, tmodChain[i-1].engine, tmodChain[i-1].memModel, g, prev,
						tmodChain[i].engine, tmodChain[i].memModel, next, src)
				}
				prev = next
			}
		}
	}
}

// TestTmodVarSubsetChain: the same chain per top-level SSA variable.
func TestTmodVarSubsetChain(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		src := randprog.Threaded(seed, 2)
		runs := analyzeTmodChain(t, seed, src)
		for vi, v0 := range runs[0].Prog.Vars {
			prev := runs[0].PointsToVar(v0)
			for i := 1; i < len(runs); i++ {
				next := runs[i].PointsToVar(runs[i].Prog.Vars[vi])
				if !prev.SubsetOf(next) {
					t.Errorf("seed %d: var %s: %s/%s pt=%s exceeds %s/%s pt=%s\n%s",
						seed, v0, tmodChain[i-1].engine, tmodChain[i-1].memModel, prev,
						tmodChain[i].engine, tmodChain[i].memModel, next, src)
				}
				prev = next
			}
		}
	}
}

// TestTmodSequentialExactness: on single-thread programs tmod must equal
// fsam exactly — per variable and per global, under every memory model.
func TestTmodSequentialExactness(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src, _ := randprog.Sequential(seed, 4, 4, 3, 20)
		ref, err := fsam.AnalyzeSource("seq.mc", src, fsam.Config{})
		if err != nil {
			t.Fatalf("seed %d: fsam: %v\n%s", seed, err, src)
		}
		if ref.Stats.Degraded != "" {
			t.Fatalf("seed %d: fsam degraded (%s)", seed, ref.Stats.Degraded)
		}
		for _, mm := range fsam.MemModels() {
			a, err := fsam.AnalyzeSource("seq.mc", src, fsam.Config{Engine: "tmod", MemModel: mm})
			if err != nil {
				t.Fatalf("seed %d: tmod/%s: %v\n%s", seed, mm, err, src)
			}
			if a.Stats.Degraded != "" {
				t.Fatalf("seed %d: tmod/%s degraded (%s)", seed, mm, a.Stats.Degraded)
			}
			if a.Stats.InterferenceRounds > 1 {
				t.Errorf("seed %d: tmod/%s took %d interference rounds on a single-thread program",
					seed, mm, a.Stats.InterferenceRounds)
			}
			for vi, v := range ref.Prog.Vars {
				want := ref.PointsToVar(v)
				got := a.PointsToVar(a.Prog.Vars[vi])
				if !want.SubsetOf(got) || !got.SubsetOf(want) {
					t.Errorf("seed %d: tmod/%s pt(%s)=%s, fsam says %s\n%s",
						seed, mm, v, got, want, src)
				}
			}
			for _, g := range pointerGlobals(ref) {
				want, err := ref.PointsToGlobal(g)
				if err != nil {
					continue
				}
				got, err := a.PointsToGlobal(g)
				if err != nil {
					t.Fatalf("seed %d: tmod/%s pt(%s): %v", seed, mm, g, err)
				}
				if !subset(want, got) || !subset(got, want) {
					t.Errorf("seed %d: tmod/%s pt(%s)=%v, fsam says %v\n%s",
						seed, mm, g, got, want, src)
				}
			}
		}
	}
}

// TestTmodScheduleEquivalence: the goroutine-per-thread rounds and the
// Options.Sequential single-goroutine reference must compute identical
// results — the exchange is a barrier over monotone unions, so schedule
// order cannot show through.
func TestTmodScheduleEquivalence(t *testing.T) {
	solve := func(t *testing.T, src string, sequential bool) (*ir.Program, *tmod.Result) {
		t.Helper()
		b, err := pipeline.FromSource("sched.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		g := vfg.BuildWithOptions(b.Model, vfg.Options{ThreadOblivious: true})
		return b.Prog, tmod.Solve(b.Model, g, tmod.Options{Sequential: sequential, Escape: escape.Analyze(b.Model)})
	}
	for seed := int64(0); seed < 10; seed++ {
		src := randprog.Threaded(seed, 3)
		parProg, par := solve(t, src, false)
		seqProg, seq := solve(t, src, true)
		if par.Rounds != seq.Rounds {
			t.Errorf("seed %d: rounds diverge: parallel %d, sequential %d", seed, par.Rounds, seq.Rounds)
		}
		for vi, v := range parProg.Vars {
			p := par.PointsToVar(v)
			s := seq.PointsToVar(seqProg.Vars[vi])
			if !p.SubsetOf(s) || !s.SubsetOf(p) {
				t.Errorf("seed %d: pt(%s) diverges between schedules: parallel %s, sequential %s\n%s",
					seed, v, p, s, src)
			}
		}
	}
}
