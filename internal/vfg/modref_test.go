package vfg

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/andersen"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/pts"
	"repro/internal/randprog"
	"repro/internal/threads"
	"repro/internal/workload"
)

// modRefRounds is the closure computeModRef replaced, kept as its
// reference: it re-scans every call, fork and join of every function until
// a whole round changes nothing.
func modRefRounds(pre *andersen.Result, model *threads.Model) *ModRef {
	mr := &ModRef{
		mod:      map[*ir.Function]*pts.Set{},
		ref:      map[*ir.Function]*pts.Set{},
		joinMods: map[*ir.Join]*pts.Set{},
	}
	prog := pre.Prog
	for _, f := range prog.Funcs {
		mr.mod[f] = &pts.Set{}
		mr.ref[f] = &pts.Set{}
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				switch s := s.(type) {
				case *ir.Store:
					mr.mod[f].UnionWith(pre.PointsToVar(s.Addr))
				case *ir.Load:
					mr.ref[f].UnionWith(pre.PointsToVar(s.Addr))
				}
			}
		}
	}
	joinRoutines := map[*ir.Join][]*ir.Function{}
	for _, e := range model.Joins {
		joinRoutines[e.Site] = append(joinRoutines[e.Site], e.Joinee.Routines...)
	}
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for _, s := range b.Stmts {
					var callees []*ir.Function
					switch s := s.(type) {
					case *ir.Call:
						callees = pre.CallTargets[s]
					case *ir.Fork:
						callees = pre.ForkTargets[s]
					case *ir.Join:
						callees = joinRoutines[s]
					default:
						continue
					}
					for _, callee := range callees {
						if mr.mod[f].UnionWith(mr.mod[callee]) {
							changed = true
						}
						if mr.ref[f].UnionWith(mr.ref[callee]) {
							changed = true
						}
					}
				}
			}
		}
	}
	for j, routines := range joinRoutines {
		set := &pts.Set{}
		for _, r := range routines {
			set.UnionWith(mr.mod[r])
		}
		mr.joinMods[j] = set
	}
	return mr
}

// checkModRef requires computeModRef to give the reference's Mod, Ref and
// JoinMods for every function and join site of src.
func checkModRef(t *testing.T, name, src string) {
	t.Helper()
	b, err := pipeline.FromSource(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got := computeModRef(b.Model.Pre, b.Model)
	want := modRefRounds(b.Model.Pre, b.Model)
	for _, f := range b.Prog.Funcs {
		if !got.Mod(f).Equal(want.Mod(f)) {
			t.Fatalf("%s: Mod(%s) = %v, want %v", name, f.Name, got.Mod(f), want.Mod(f))
		}
		if !got.Ref(f).Equal(want.Ref(f)) {
			t.Fatalf("%s: Ref(%s) = %v, want %v", name, f.Name, got.Ref(f), want.Ref(f))
		}
	}
	if len(got.joinMods) != len(want.joinMods) {
		t.Fatalf("%s: %d join sites, want %d", name, len(got.joinMods), len(want.joinMods))
	}
	for j, w := range want.joinMods {
		if !got.JoinMods(j).Equal(w) {
			t.Fatalf("%s: JoinMods(%d) = %v, want %v", name, j.ID(), got.JoinMods(j), w)
		}
	}
}

// mutualRecursion needs a second pop: f and g form one SCC and f pops
// first, so h's store reaches f only through g, after f's first pop, and
// reaches main only through f's second.
const mutualRecursion = `
int a;
int *pa;
void f(int n) { if (n > 0) { g(n - 1); } }
void g(int n) { h(); f(n); }
void h() { *pa = &a; }
int main() { pa = &a; f(3); return 0; }
`

func TestModRefMatchesRounds(t *testing.T) {
	checkModRef(t, "mutual.mc", mutualRecursion)
	paths, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		checkModRef(t, filepath.Base(p), string(src))
	}
	for _, spec := range workload.Suite {
		checkModRef(t, spec.Name, workload.GenerateSpec(spec, 1))
	}
	for seed := int64(0); seed < 40; seed++ {
		checkModRef(t, fmt.Sprintf("seed%d.mc", seed), randprog.Threaded(seed, 3))
	}
}
