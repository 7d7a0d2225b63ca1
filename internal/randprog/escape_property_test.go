package randprog_test

import (
	"testing"

	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/threads"
)

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
