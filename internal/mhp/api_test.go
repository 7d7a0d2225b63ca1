package mhp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/ir"
	"repro/internal/mhp"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestInstancesAPI covers the instance-enumeration surface used by the
// value-flow phase and the clients.
func TestInstancesAPI(t *testing.T) {
	b, r := setup(t, `
int shared;
void helper() { shared = 1; }
void w(void *a) { helper(); }
int main() {
	helper();
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`)
	var helperStore ir.Stmt
	for _, s := range b.Prog.Stmts {
		if st, ok := s.(*ir.Store); ok && ir.StmtFunc(st).Name == "helper" {
			helperStore = st
		}
	}
	if helperStore == nil {
		t.Fatal("no store in helper")
	}
	insts := r.Instances(helperStore)
	// helper executes in two instances: main's direct call and the
	// worker's call.
	if len(insts) != 2 {
		t.Fatalf("instances = %d, want 2", len(insts))
	}
	threads := map[int]bool{}
	for _, in := range insts {
		threads[in.Thread.ID] = true
		if in.Ctx == callgraph.EmptyCtx {
			t.Error("call through helper must carry a pushed context")
		}
	}
	if len(threads) != 2 {
		t.Errorf("instance threads = %v, want main and worker", threads)
	}
}

// TestIQueryDirect covers the raw I(t,c,s) query.
func TestIQueryDirect(t *testing.T) {
	b, r := setup(t, `
int before2; int wbody2;
void w(void *a) { wbody2 = 1; }
int main() {
	thread_t t;
	t = spawn(w, NULL);
	before2 = 1;
	join(t);
	return 0;
}
`)
	sBefore := storeToGlobal(t, b.Prog, "before2")
	worker := threadByRoutine(t, b.Model, "w")
	// From main's perspective, the worker is live at the store between
	// fork and join.
	set := r.I(b.Model.Main, callgraph.EmptyCtx, sBefore)
	if set == nil || !set.Has(uint32(worker.ID)) {
		t.Errorf("I(main, [], before) = %v, want to contain worker", set)
	}
	// Unreachable instance: the worker thread never executes main's store.
	if got := r.I(worker, worker.StartCtx, sBefore); got != nil {
		t.Errorf("I(worker, start, mainStore) = %v, want nil", got)
	}
}

// TestInstanceFactsMatchI checks that InstanceFacts lists Instances in
// order, each carrying the I(t,c,s) fact the raw query returns.
func TestInstanceFactsMatchI(t *testing.T) {
	b, r := setup(t, `
int shared4;
void helper() { shared4 = 1; }
void w(void *a) { helper(); }
int main() {
	thread_t t;
	t = spawn(w, NULL);
	helper();
	join(t);
	return 0;
}
`)
	s := storeToGlobal(t, b.Prog, "shared4")
	insts := r.Instances(s)
	facts := r.InstanceFacts(s)
	if len(facts) != len(insts) || len(facts) != 2 {
		t.Fatalf("facts = %d, instances = %d, want 2", len(facts), len(insts))
	}
	for i, f := range facts {
		if f.ThreadCtx != insts[i] {
			t.Errorf("fact %d instance = %v, want %v", i, f.ThreadCtx, insts[i])
		}
		want := r.I(f.Thread, f.Ctx, s)
		if f.I != want {
			t.Errorf("fact %d: I = %v, want %v", i, f.I, want)
		}
		if f.I == nil {
			t.Errorf("fact %d: helper's store is reached in both threads", i)
		}
	}
}

// TestMHPInstancesShape checks the pair-listing API.
func TestMHPInstancesShape(t *testing.T) {
	b, r := setup(t, `
int a3; int b3;
void w(void *x) { a3 = 1; }
int main() {
	thread_t t;
	t = spawn(w, NULL);
	b3 = 1;
	join(t);
	return 0;
}
`)
	sa := storeToGlobal(t, b.Prog, "a3")
	sb := storeToGlobal(t, b.Prog, "b3")
	pairs := r.MHPInstances(sa, sb)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %d, want 1", len(pairs))
	}
	if pairs[0][0].Thread == pairs[0][1].Thread {
		t.Error("pair must cross threads")
	}
}

// TestInstanceOrderDeterministic runs the analysis repeatedly on one model:
// Instances order must not depend on map iteration (the race witness takes
// the first MHP pair in that order).
func TestInstanceOrderDeterministic(t *testing.T) {
	spec, _ := workload.ByName("radiosity")
	b, err := pipeline.FromSource("radiosity@2", workload.GenerateSpec(spec, 2))
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for run := 0; run < 8; run++ {
		r := mhp.Analyze(b.Model)
		var seq strings.Builder
		for _, s := range b.Prog.Stmts {
			for _, in := range r.Instances(s) {
				fmt.Fprintf(&seq, "%d %s %s\n", s.ID(), in.Thread, b.Model.Ctxs.String(in.Ctx))
			}
		}
		if run == 0 {
			first = seq.String()
		} else if seq.String() != first {
			t.Fatalf("run %d: instance order differs", run)
		}
	}
}
