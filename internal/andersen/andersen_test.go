package andersen_test

import (
	"testing"

	"repro/internal/andersen"
	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/irbuild"
)

// analyze compiles src and runs the pre-analysis.
func analyze(t *testing.T, src string) *andersen.Result {
	t.Helper()
	f, errs := parser.Parse("test.mc", src)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	p, err := irbuild.Build(f)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return andersen.Analyze(p)
}

// objByName finds an object by (suffix of) its name.
func objByName(t *testing.T, p *ir.Program, name string) *ir.Object {
	t.Helper()
	for _, o := range p.Objects {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("no object named %q", name)
	return nil
}

// ptsNames returns the names of objects in the points-to set of object o.
func ptsNames(r *andersen.Result, o *ir.Object) map[string]bool {
	out := map[string]bool{}
	r.PointsToObj(o).ForEach(func(id uint32) {
		out[r.Obj(id).Name] = true
	})
	return out
}

func TestBasicAddrAndCopy(t *testing.T) {
	r := analyze(t, `
int x; int y;
int *p; int *q;
int main() {
	p = &x;
	q = p;
	return 0;
}
`)
	p := objByName(t, r.Prog, "p")
	q := objByName(t, r.Prog, "q")
	if n := ptsNames(r, p); !n["x"] || len(n) != 1 {
		t.Errorf("pt(p) = %v, want {x}", n)
	}
	if n := ptsNames(r, q); !n["x"] || len(n) != 1 {
		t.Errorf("pt(q) = %v, want {x}", n)
	}
}

func TestLoadStore(t *testing.T) {
	r := analyze(t, `
int x; int y;
int *a; int *b;
int **pp;
int main() {
	a = &x;
	pp = &a;
	*pp = &y;  // a now may point to y too (flow-insensitive)
	b = *pp;
	return 0;
}
`)
	b := objByName(t, r.Prog, "b")
	n := ptsNames(r, b)
	if !n["x"] || !n["y"] {
		t.Errorf("pt(b) = %v, want x and y", n)
	}
}

func TestHeapAllocation(t *testing.T) {
	r := analyze(t, `
int *p; int *q;
int main() {
	p = malloc();
	q = malloc();
	return 0;
}
`)
	p := objByName(t, r.Prog, "p")
	q := objByName(t, r.Prog, "q")
	np, nq := ptsNames(r, p), ptsNames(r, q)
	if len(np) != 1 || len(nq) != 1 {
		t.Fatalf("pt(p)=%v pt(q)=%v, want singletons", np, nq)
	}
	for k := range np {
		if nq[k] {
			t.Error("distinct malloc sites must yield distinct objects")
		}
	}
}

func TestInterproceduralCopy(t *testing.T) {
	r := analyze(t, `
int x;
int *id(int *v) { return v; }
int *g;
int main() {
	g = id(&x);
	return 0;
}
`)
	g := objByName(t, r.Prog, "g")
	if n := ptsNames(r, g); !n["x"] {
		t.Errorf("pt(g) = %v, want {x}", n)
	}
}

func TestFunctionPointer(t *testing.T) {
	r := analyze(t, `
int x; int y;
int *fa() { return &x; }
int *fb() { return &y; }
void *fp;
int *g;
int main() {
	if (1) { fp = fa; } else { fp = fb; }
	g = fp();
	return 0;
}
`)
	g := objByName(t, r.Prog, "g")
	n := ptsNames(r, g)
	if !n["x"] || !n["y"] {
		t.Errorf("pt(g) = %v, want x and y via indirect call", n)
	}
	// Both functions should be resolved as callees of the indirect call.
	var icall *ir.Call
	for _, s := range r.Prog.Stmts {
		if c, ok := s.(*ir.Call); ok && c.CalleeVar != nil {
			icall = c
		}
	}
	if icall == nil {
		t.Fatal("no indirect call found")
	}
	if len(r.CallTargets[icall]) != 2 {
		t.Errorf("indirect call targets = %v, want 2", r.CallTargets[icall])
	}
}

func TestFieldSensitivity(t *testing.T) {
	r := analyze(t, `
struct S { int *f; int *g; };
struct S s;
int x; int y;
int *a; int *b;
int main() {
	s.f = &x;
	s.g = &y;
	a = s.f;
	b = s.g;
	return 0;
}
`)
	a := objByName(t, r.Prog, "a")
	b := objByName(t, r.Prog, "b")
	na, nb := ptsNames(r, a), ptsNames(r, b)
	if !na["x"] || na["y"] {
		t.Errorf("pt(a) = %v, want exactly {x}", na)
	}
	if !nb["y"] || nb["x"] {
		t.Errorf("pt(b) = %v, want exactly {y}", nb)
	}
}

func TestArrayMonolithic(t *testing.T) {
	r := analyze(t, `
int x; int y;
int *arr[4];
int *a;
int main() {
	arr[0] = &x;
	arr[1] = &y;
	a = arr[3];
	return 0;
}
`)
	a := objByName(t, r.Prog, "a")
	n := ptsNames(r, a)
	if !n["x"] || !n["y"] {
		t.Errorf("pt(a) = %v, want x and y (monolithic array)", n)
	}
}

func TestForkHandleAndArg(t *testing.T) {
	r := analyze(t, `
int x;
int *shared;
void worker(void *arg) {
	shared = arg;
}
int main() {
	thread_t t;
	t = spawn(worker, &x);
	join(t);
	return 0;
}
`)
	shared := objByName(t, r.Prog, "shared")
	if n := ptsNames(r, shared); !n["x"] {
		t.Errorf("pt(shared) = %v, want {x}: fork arg must flow to param", n)
	}
	var fork *ir.Fork
	for _, s := range r.Prog.Stmts {
		if f, ok := s.(*ir.Fork); ok {
			fork = f
		}
	}
	if got := r.ForkTargets[fork]; len(got) != 1 || got[0].Name != "worker" {
		t.Errorf("fork targets = %v", got)
	}
	// The join handle must resolve to the fork's thread object.
	var join *ir.Join
	for _, s := range r.Prog.Stmts {
		if j, ok := s.(*ir.Join); ok {
			join = j
		}
	}
	handles := r.PointsToVar(join.Handle)
	if id, ok := handles.Single(); !ok || r.Obj(id) != fork.Handle {
		t.Errorf("join handle pts = %v, want the fork handle", handles)
	}
}

func TestIndirectForkRoutine(t *testing.T) {
	r := analyze(t, `
int done;
void workerA(void *a) { done = 1; }
void workerB(void *a) { done = 2; }
void *routine;
int main() {
	if (1) { routine = workerA; } else { routine = workerB; }
	thread_t t;
	t = spawn(routine, NULL);
	join(t);
	return 0;
}
`)
	var fork *ir.Fork
	for _, s := range r.Prog.Stmts {
		if f, ok := s.(*ir.Fork); ok {
			fork = f
		}
	}
	if got := r.ForkTargets[fork]; len(got) != 2 {
		t.Errorf("indirect fork targets = %v, want workerA and workerB", got)
	}
}

func TestMayAliasAndAliasSet(t *testing.T) {
	r := analyze(t, `
int x; int y;
int *p; int *q; int *r;
int main() {
	p = &x;
	q = &x;
	r = &y;
	return 0;
}
`)
	// Find the loads' source variables via the stores into globals.
	var pv, qv, rv *ir.Var
	for _, s := range r.Prog.Stmts {
		st, ok := s.(*ir.Store)
		if !ok {
			continue
		}
		if a, ok := addrTarget(r.Prog, st); ok {
			switch a {
			case "p":
				pv = st.Src
			case "q":
				qv = st.Src
			case "r":
				rv = st.Src
			}
		}
	}
	if pv == nil || qv == nil || rv == nil {
		t.Fatal("missing stores")
	}
	if !r.MayAlias(pv, qv) {
		t.Error("p and q should alias")
	}
	if r.MayAlias(pv, rv) {
		t.Error("p and r should not alias")
	}
	if n := r.AliasSet(pv, qv).Len(); n != 1 {
		t.Errorf("alias set size = %d, want 1", n)
	}
}

// addrTarget resolves a store's address operand to a global name if it is a
// direct AddrOf of a global.
func addrTarget(p *ir.Program, st *ir.Store) (string, bool) {
	for _, s := range p.Stmts {
		if a, ok := s.(*ir.AddrOf); ok && a.Dst == st.Addr && a.Obj.Kind == ir.ObjGlobal {
			return a.Obj.Name, true
		}
	}
	return "", false
}

func TestRecursionTerminates(t *testing.T) {
	r := analyze(t, `
int x;
int *walk(int *v, int n) {
	if (n > 0) { return walk(v, n - 1); }
	return v;
}
int *g;
int main() {
	g = walk(&x, 5);
	return 0;
}
`)
	g := objByName(t, r.Prog, "g")
	if n := ptsNames(r, g); !n["x"] {
		t.Errorf("pt(g) = %v, want {x}", n)
	}
}

func TestBytesAccounting(t *testing.T) {
	r := analyze(t, `
int x;
int *p;
int main() { p = &x; return 0; }
`)
	if r.Bytes() == 0 {
		t.Error("expected nonzero memory accounting")
	}
}
