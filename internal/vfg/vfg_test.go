package vfg_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/pipeline"
	"repro/internal/vfg"
)

// build compiles src and constructs the full def-use graph.
func build(t *testing.T, src string) (*pipeline.Base, *vfg.Graph) {
	t.Helper()
	b, err := pipeline.FromSource("t.mc", src)
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	il := b.Interleavings()
	lk := locks.Analyze(b.Model)
	g := vfg.BuildWithOptions(b.Model, vfg.Options{Interleave: il, Locks: lk})
	return b, g
}

func globalObj(t *testing.T, b *pipeline.Base, name string) *ir.Object {
	t.Helper()
	for _, o := range b.Prog.Objects {
		if o.Kind == ir.ObjGlobal && o.Name == name {
			return o
		}
	}
	t.Fatalf("no global %s", name)
	return nil
}

// storesOf returns stores of a function that may write obj.
func storesOf(b *pipeline.Base, fname string, obj *ir.Object) []*ir.Store {
	var out []*ir.Store
	for _, blk := range b.Prog.FuncByName[fname].Blocks {
		for _, s := range blk.Stmts {
			if st, ok := s.(*ir.Store); ok && b.Pre.PointsToVar(st.Addr).Has(uint32(obj.ID)) {
				out = append(out, st)
			}
		}
	}
	return out
}

// loadsOf returns loads of a function that may read obj.
func loadsOf(b *pipeline.Base, fname string, obj *ir.Object) []*ir.Load {
	var out []*ir.Load
	for _, blk := range b.Prog.FuncByName[fname].Blocks {
		for _, s := range blk.Stmts {
			if l, ok := s.(*ir.Load); ok && b.Pre.PointsToVar(l.Addr).Has(uint32(obj.ID)) {
				out = append(out, l)
			}
		}
	}
	return out
}

// storeChi returns the physical ID of the chi of (s, obj), which must
// exist.
func storeChi(t *testing.T, g *vfg.Graph, s *ir.Store, obj *ir.Object) int {
	t.Helper()
	id := g.StoreChiNode(s, obj)
	if id < 0 {
		t.Fatalf("no chi of %s at %s", obj, s)
	}
	return int(g.Rep[id])
}

// hasMemPath reports whether the def-use graph can carry obj's value from
// node `from` to the load (transitively through memory nodes).
func hasMemPath(g *vfg.Graph, from int, load *ir.Load) bool {
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out[n] {
			if e.ToLoad == load {
				return true
			}
			if e.ToMem >= 0 && !seen[e.ToMem] {
				seen[e.ToMem] = true
				stack = append(stack, e.ToMem)
			}
		}
	}
	return false
}

// fig6 is the paper's Figure 6 program: p and q point to o; the fork-related
// and join-related def-use edges must materialize.
const fig6 = `
int o;
int *p; int *q;
int *sink;

void foo(void *arg) {
	*q = &o;      // s4
	sink = *q;    // s5
}

int main() {
	p = &o; q = &o;
	*p = &o;      // s1
	thread_t t;
	t = spawn(foo, NULL);
	*p = &o;      // s2
	join(t);
	sink = *p;    // s3
	return 0;
}
`

func TestFig6DefUseStructure(t *testing.T) {
	b, g := build(t, fig6)
	obj := globalObj(t, b, "o")
	mainStores := storesOf(b, "main", obj)
	fooStores := storesOf(b, "foo", obj)
	if len(mainStores) != 2 || len(fooStores) != 1 {
		t.Fatalf("stores: main=%d foo=%d", len(mainStores), len(fooStores))
	}
	s1, s2 := mainStores[0], mainStores[1]
	s4 := fooStores[0]
	mainLoads := loadsOf(b, "main", obj)
	fooLoads := loadsOf(b, "foo", obj)
	if len(mainLoads) != 1 || len(fooLoads) != 1 {
		t.Fatalf("loads: main=%d foo=%d", len(mainLoads), len(fooLoads))
	}
	s3, s5 := mainLoads[0], fooLoads[0]

	chi := func(s *ir.Store) int { return storeChi(t, g, s, obj) }

	// s1 flows into foo (fork mu): s1 → s4's chi (weak in) or s5.
	if !hasMemPath(g, chi(s1), s5) && !hasMemPath(g, chi(s4), s5) {
		t.Error("foo's load must see a definition")
	}
	// Fork bypass (Figure 6(c)): s1's value reaches s2's chi directly
	// (s2 is between fork and join).
	found := false
	for _, e := range g.Out[chi(s1)] {
		if e.ToMem == chi(s2) {
			found = true
		}
	}
	if !found {
		t.Error("missing fork-bypass edge s1 → s2 (Figure 6(c))")
	}
	// Join-related flow (Figure 6(d)): s4's value reaches s3.
	if !hasMemPath(g, chi(s4), s3) {
		t.Error("missing join-related flow s4 → s3 (Figure 6(d))")
	}
	// Thread-aware (THREAD-VF): s2 MHP s5 → edge s2 → s5.
	if !hasMemPath(g, chi(s2), s5) {
		t.Error("missing thread-aware flow s2 → s5")
	}
}

func TestNoBypassAfterFullJoin(t *testing.T) {
	// Figure 1(c) shape: value before the fork must NOT flow directly to a
	// use after the full join (the routine definitely completed).
	b, g := build(t, `
int o;
int *p;
int *sink;
void foo(void *arg) {
	*p = &o;
}
int main() {
	p = &o;
	*p = &o;     // pre-fork store
	thread_t t;
	t = spawn(foo, NULL);
	join(t);
	sink = *p;   // post-join load
	return 0;
}
`)
	obj := globalObj(t, b, "o")
	pre := storesOf(b, "main", obj)[0]
	post := loadsOf(b, "main", obj)[0]
	chi := storeChi(t, g, pre, obj)
	// Direct bypass edge chi(pre) → post must not exist (the flow must go
	// through foo, where it is strongly updated).
	for _, e := range g.Out[chi] {
		if e.ToLoad == post {
			t.Error("stale pre-fork value must not bypass a full join")
		}
	}
}

func TestBypassForUnjoinedThread(t *testing.T) {
	b, g := build(t, `
int o;
int *p;
int *sink;
void foo(void *arg) {
	*p = &o;
}
int main() {
	p = &o;
	*p = &o;     // pre-fork store
	thread_t t;
	t = spawn(foo, NULL);
	sink = *p;   // load with the thread still running
	return 0;
}
`)
	obj := globalObj(t, b, "o")
	pre := storesOf(b, "main", obj)[0]
	load := loadsOf(b, "main", obj)[0]
	chi := storeChi(t, g, pre, obj)
	found := false
	for _, e := range g.Out[chi] {
		if e.ToLoad == load {
			found = true
		}
	}
	if !found {
		t.Error("pre-fork value must bypass the (possibly unrun) routine")
	}
}

func TestThreadEdgeCounts(t *testing.T) {
	b, g := build(t, fig6)
	if g.ThreadEdges == 0 {
		t.Error("expected thread-aware edges")
	}
	if g.ObliviousEdges == 0 {
		t.Error("expected thread-oblivious edges")
	}
	// The uncompacted graph holds exactly the constructed thread-oblivious
	// edges and the stored thread-aware ones; compaction merges edges, so
	// the compact graph holds at most as many.
	full := vfg.BuildUncompacted(b.Model, vfg.Options{Interleave: b.Interleavings(), Locks: locks.Analyze(b.Model)})
	if full.NumEdges() != full.StoredThreadEdges+full.ObliviousEdges {
		t.Errorf("uncompacted edge accounting: total=%d stored=%d obl=%d",
			full.NumEdges(), full.StoredThreadEdges, full.ObliviousEdges)
	}
	if full.ThreadEdges != g.ThreadEdges || full.ObliviousEdges != g.ObliviousEdges ||
		full.StoredThreadEdges != g.StoredThreadEdges || full.ThreadHubs != g.ThreadHubs {
		t.Errorf("counters differ: compact thr=%d obl=%d stored=%d hubs=%d, uncompacted thr=%d obl=%d stored=%d hubs=%d",
			g.ThreadEdges, g.ObliviousEdges, g.StoredThreadEdges, g.ThreadHubs,
			full.ThreadEdges, full.ObliviousEdges, full.StoredThreadEdges, full.ThreadHubs)
	}
	if g.NumEdges() > g.StoredThreadEdges+g.ObliviousEdges {
		t.Errorf("compact edge accounting: total=%d stored=%d obl=%d",
			g.NumEdges(), g.StoredThreadEdges, g.ObliviousEdges)
	}
}

func TestLockFilteringReducesEdges(t *testing.T) {
	src := `
int o;
int *p; int *q;
lock_t m;
void w1(void *arg) {
	lock(&m);
	*p = &o;
	*p = NULL;
	*p = &o;
	unlock(&m);
}
void w2(void *arg) {
	lock(&m);
	int *v;
	v = *q;
	v = *q;
	unlock(&m);
}
int main() {
	p = &o; q = &o;
	thread_t a; thread_t b;
	a = spawn(w1, NULL);
	b = spawn(w2, NULL);
	join(a);
	join(b);
	return 0;
}
`
	b, err := pipeline.FromSource("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	il := b.Interleavings()
	withLocks := vfg.BuildWithOptions(b.Model, vfg.Options{Interleave: il, Locks: locks.Analyze(b.Model)})
	withoutLocks := vfg.BuildWithOptions(b.Model, vfg.Options{Interleave: il})
	if withLocks.ThreadEdges >= withoutLocks.ThreadEdges {
		t.Errorf("lock filtering must remove edges: with=%d without=%d",
			withLocks.ThreadEdges, withoutLocks.ThreadEdges)
	}
	if withLocks.FilteredByLock == 0 {
		t.Error("FilteredByLock counter must be positive")
	}
}

func TestNoValueFlowAddsEdges(t *testing.T) {
	src := fig6
	b, err := pipeline.FromSource("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	il := b.Interleavings()
	normal := vfg.BuildWithOptions(b.Model, vfg.Options{Interleave: il})
	ablated := vfg.BuildWithOptions(b.Model, vfg.Options{Interleave: il, NoValueFlow: true})
	if ablated.ThreadEdges <= normal.ThreadEdges {
		t.Errorf("No-Value-Flow must add edges: normal=%d ablated=%d",
			normal.ThreadEdges, ablated.ThreadEdges)
	}
}

func TestModRef(t *testing.T) {
	b, g := build(t, `
int a; int b2;
int *pa; int *pb;
void writeA() { *pa = &a; }
void readB() { int *v; v = *pb; }
void both() { writeA(); readB(); }
int main() {
	pa = &a; pb = &b2;
	both();
	return 0;
}
`)
	objA := globalObj(t, b, "a")
	objB := globalObj(t, b, "b2")
	writeA := b.Prog.FuncByName["writeA"]
	readB := b.Prog.FuncByName["readB"]
	both := b.Prog.FuncByName["both"]
	if !g.MR.Mod(writeA).Has(uint32(objA.ID)) {
		t.Error("writeA must mod a")
	}
	if g.MR.Mod(readB).Has(uint32(objA.ID)) {
		t.Error("readB must not mod a")
	}
	if !g.MR.Ref(readB).Has(uint32(objB.ID)) {
		t.Error("readB must ref b2")
	}
	// Transitive.
	if !g.MR.Mod(both).Has(uint32(objA.ID)) || !g.MR.Ref(both).Has(uint32(objB.ID)) {
		t.Error("both must inherit callee effects")
	}
}

func TestEntryAndExitNodes(t *testing.T) {
	b, g := build(t, `
int o;
int *p;
void w() { *p = &o; }
int main() {
	p = &o;
	w();
	int *v;
	v = *p;
	return 0;
}
`)
	obj := globalObj(t, b, "o")
	w := b.Prog.FuncByName["w"]
	if g.EntryChiNode(w, obj) < 0 {
		t.Error("w must have an entry chi for o")
	}
	if g.ExitPhiNode(w, obj) < 0 {
		t.Error("w must have an exit phi for o")
	}
	if g.ExitPhiNode(b.Prog.Main, obj) < 0 {
		t.Error("main must have an exit phi for o")
	}
}

func TestGraphBytes(t *testing.T) {
	_, g := build(t, fig6)
	if g.Bytes() == 0 {
		t.Error("graph bytes")
	}
}

func TestMemNodeStringers(t *testing.T) {
	_, g := build(t, fig6)
	for _, n := range g.Nodes {
		if n.String() == "" {
			t.Fatal("empty node string")
		}
	}
}
