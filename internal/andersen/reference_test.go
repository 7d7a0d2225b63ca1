package andersen_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/andersen"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/pts"
	"repro/internal/randprog"
	"repro/internal/workload"
)

// objSet is a reference points-to set.
type objSet map[*ir.Object]bool

// refSolver is textbook Andersen: every statement's inclusion rule is
// applied in turn, over plain map sets, until a whole pass changes
// nothing. There is no worklist, difference propagation, interning or
// cycle collapsing, so it shares none of the solver's machinery.
type refSolver struct {
	prog    *ir.Program
	vars    map[*ir.Var]objSet
	objs    map[*ir.Object]objSet
	calls   map[*ir.Call]map[*ir.Function]bool
	forks   map[*ir.Fork]map[*ir.Function]bool
	changed bool
}

func referenceAnalyze(prog *ir.Program) *refSolver {
	r := &refSolver{
		prog:  prog,
		vars:  map[*ir.Var]objSet{},
		objs:  map[*ir.Object]objSet{},
		calls: map[*ir.Call]map[*ir.Function]bool{},
		forks: map[*ir.Fork]map[*ir.Function]bool{},
	}
	for r.changed = true; r.changed; {
		r.changed = false
		for _, f := range prog.Funcs {
			for _, b := range f.Blocks {
				for _, st := range b.Stmts {
					r.apply(f, st)
				}
			}
		}
	}
	return r
}

func (r *refSolver) varSet(v *ir.Var) objSet {
	s := r.vars[v]
	if s == nil {
		s = objSet{}
		r.vars[v] = s
	}
	return s
}

func (r *refSolver) objSet(o *ir.Object) objSet {
	s := r.objs[o]
	if s == nil {
		s = objSet{}
		r.objs[o] = s
	}
	return s
}

func (r *refSolver) insert(dst objSet, o *ir.Object) {
	if !dst[o] {
		dst[o] = true
		r.changed = true
	}
}

func (r *refSolver) union(dst, src objSet) {
	for o := range src {
		r.insert(dst, o)
	}
}

// resolve records target in seen, marking the pass changed when it is new.
func (r *refSolver) resolve(seen map[*ir.Function]bool, target *ir.Function) {
	if !seen[target] {
		seen[target] = true
		r.changed = true
	}
}

// targets returns a direct target, or the functions ptr may point to.
func (r *refSolver) targets(direct *ir.Function, ptr *ir.Var) []*ir.Function {
	if direct != nil {
		return []*ir.Function{direct}
	}
	var out []*ir.Function
	for o := range r.varSet(ptr) {
		if o.Kind == ir.ObjFunc && o.Func != nil {
			out = append(out, o.Func)
		}
	}
	return out
}

func (r *refSolver) apply(f *ir.Function, st ir.Stmt) {
	switch st := st.(type) {
	case *ir.AddrOf:
		r.insert(r.varSet(st.Dst), st.Obj)
	case *ir.Copy:
		r.union(r.varSet(st.Dst), r.varSet(st.Src))
	case *ir.Phi:
		for _, in := range st.Incoming {
			if in != nil {
				r.union(r.varSet(st.Dst), r.varSet(in))
			}
		}
	case *ir.Load:
		for o := range r.varSet(st.Addr) {
			r.union(r.varSet(st.Dst), r.objSet(o))
		}
	case *ir.Store:
		for o := range r.varSet(st.Addr) {
			r.union(r.objSet(o), r.varSet(st.Src))
		}
	case *ir.Gep:
		for o := range r.varSet(st.Base) {
			r.insert(r.varSet(st.Dst), r.prog.FieldObj(o, st.Field))
		}
	case *ir.Call:
		if r.calls[st] == nil {
			r.calls[st] = map[*ir.Function]bool{}
		}
		for _, callee := range r.targets(st.Callee, st.CalleeVar) {
			r.resolve(r.calls[st], callee)
			for i := 0; i < len(st.Args) && i < len(callee.Params); i++ {
				r.union(r.varSet(callee.Params[i]), r.varSet(st.Args[i]))
			}
			if st.Dst != nil && callee.RetVar != nil {
				r.union(r.varSet(st.Dst), r.varSet(callee.RetVar))
			}
		}
	case *ir.Ret:
		if st.Val != nil && f.RetVar != nil {
			r.union(r.varSet(f.RetVar), r.varSet(st.Val))
		}
	case *ir.Fork:
		if st.Dst != nil {
			r.insert(r.varSet(st.Dst), st.Handle)
		}
		if r.forks[st] == nil {
			r.forks[st] = map[*ir.Function]bool{}
		}
		for _, routine := range r.targets(st.Routine, st.RoutineVar) {
			r.resolve(r.forks[st], routine)
			if st.Arg != nil && len(routine.Params) > 0 {
				r.union(r.varSet(routine.Params[0]), r.varSet(st.Arg))
			}
		}
	}
}

// objKey names an object independently of the order in which field
// objects were discovered: compiled objects by ID and name, field objects
// by their base's key and field index.
func objKey(o *ir.Object) string {
	if o.Base != nil {
		return fmt.Sprintf("%s.f%d", objKey(o.Base), o.FieldIdx)
	}
	return fmt.Sprintf("%d:%s", o.ID, o.Name)
}

func sortedKeys(objs []*ir.Object) string {
	keys := make([]string, len(objs))
	for i, o := range objs {
		keys[i] = objKey(o)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

func (s objSet) String() string {
	var objs []*ir.Object
	for o := range s {
		objs = append(objs, o)
	}
	return sortedKeys(objs)
}

func resultKeys(r *andersen.Result, ids *pts.Set) string {
	var objs []*ir.Object
	ids.ForEach(func(id uint32) { objs = append(objs, r.Obj(id)) })
	return sortedKeys(objs)
}

func funcNames(fs []*ir.Function) string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

func funcSetNames(seen map[*ir.Function]bool) string {
	var fs []*ir.Function
	for f := range seen {
		fs = append(fs, f)
	}
	return funcNames(fs)
}

// checkAgainstReference compiles src twice and checks the two copies with
// checkProgsAgainstReference.
func checkAgainstReference(t *testing.T, name, src string) int {
	t.Helper()
	progA, err := pipeline.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	progB, err := pipeline.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return checkProgsAgainstReference(t, name, progA, progB)
}

// checkProgsAgainstReference solves progA with Analyze and progB, an
// identical copy, with the reference, and requires identical points-to
// sets for every variable and object and identical call and fork targets.
// It returns the number of non-empty points-to sets.
func checkProgsAgainstReference(t *testing.T, name string, progA, progB *ir.Program) int {
	t.Helper()
	res := andersen.Analyze(progA)
	ref := referenceAnalyze(progB)

	var diffs []string
	diff := func(format string, args ...any) {
		if len(diffs) < 10 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	nonEmpty := 0
	if len(progA.Vars) != len(progB.Vars) {
		t.Fatalf("%s: %d vs %d variables across compiles", name, len(progA.Vars), len(progB.Vars))
	}
	for i, v := range progA.Vars {
		got, want := resultKeys(res, res.PointsToVar(v)), ref.vars[progB.Vars[i]].String()
		if got != want {
			diff("pt(%s) = {%s}, reference {%s}", v.Name, got, want)
		}
		if got != "" {
			nonEmpty++
		}
	}

	refObjs := map[string]*ir.Object{}
	for _, o := range progB.Objects {
		refObjs[objKey(o)] = o
	}
	if len(progA.Objects) != len(progB.Objects) {
		diff("%d objects, reference %d", len(progA.Objects), len(progB.Objects))
	}
	for _, o := range progA.Objects {
		ro := refObjs[objKey(o)]
		if ro == nil {
			diff("object %s not in the reference", objKey(o))
			continue
		}
		got, want := resultKeys(res, res.PointsToObj(o)), ref.objs[ro].String()
		if got != want {
			diff("pt(%s) = {%s}, reference {%s}", objKey(o), got, want)
		}
		if got != "" {
			nonEmpty++
		}
	}

	for i, st := range progA.Stmts {
		switch st := st.(type) {
		case *ir.Call:
			got, want := funcNames(res.CallTargets[st]), funcSetNames(ref.calls[progB.Stmts[i].(*ir.Call)])
			if got != want {
				diff("call %s targets {%s}, reference {%s}", st, got, want)
			}
		case *ir.Fork:
			got, want := funcNames(res.ForkTargets[st]), funcSetNames(ref.forks[progB.Stmts[i].(*ir.Fork)])
			if got != want {
				diff("fork %s targets {%s}, reference {%s}", st, got, want)
			}
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("%s: Analyze differs from the reference:\n  %s", name, strings.Join(diffs, "\n  "))
	}
	return nonEmpty
}

func TestAnalyzeMatchesReferenceCorpus(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if checkAgainstReference(t, filepath.Base(p), string(src)) == 0 {
			t.Errorf("%s: every points-to set is empty", p)
		}
	}
}

func TestAnalyzeMatchesReferenceSuite(t *testing.T) {
	for _, spec := range workload.Suite {
		if checkAgainstReference(t, spec.Name, workload.GenerateSpec(spec, 1)) == 0 {
			t.Errorf("%s: every points-to set is empty", spec.Name)
		}
	}
}

func TestAnalyzeMatchesReferenceRandom(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < seeds; seed++ {
		if checkAgainstReference(t, fmt.Sprintf("seed%d.mc", seed), randprog.Threaded(seed, 3)) == 0 {
			t.Errorf("seed %d: every points-to set is empty", seed)
		}
	}
}

// TestAnalyzeMatchesReferenceHVN covers the offline equivalence rules for
// variables fed only while solving: each program breaks if its rule is
// dropped and the variable falls into the provably-empty class, or shares
// a class with variables it does not equal.
func TestAnalyzeMatchesReferenceHVN(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		// A parameter of an address-taken function: p receives &a only
		// through the indirect call, while the uninitialized q is empty.
		{"addrtaken_param.mc", `
int a;
int *out;
int *other;
void *handler;

void set(int *p) { out = p; }

int main() {
	int *q;
	other = q;
	handler = set;
	handler(&a);
	return 0;
}
`},
		// The result of an indirect call, used afterwards.
		{"indirect_result.mc", `
int a;
int *got;
void *getter;

int *get() { return &a; }

int main() {
	int *r;
	getter = get;
	r = getter();
	got = r;
	return 0;
}
`},
		// An indirect fork passing a pointer to its routine.
		{"indirect_fork.mc", `
int a;
int *out;
void *routine;

void worker(void *arg) { out = arg; }

int main() {
	thread_t t;
	routine = worker;
	t = spawn(routine, &a);
	join(t);
	return 0;
}
`},
		// A direct fork passing a pointer: the one offline edge into the
		// routine's parameter.
		{"direct_fork.mc", `
int a;
int *out;

void worker(void *arg) { out = arg; }

int main() {
	thread_t t;
	t = spawn(worker, &a);
	join(t);
	return 0;
}
`},
		// n = n->next: the loop phi, the gep and the load form one cycle.
		{"load_gep_cycle.mc", `
struct N { struct N *next; int v; };
struct N n1; struct N n2;
struct N *last;

int main() {
	struct N *n;
	n1.next = &n2;
	n2.next = &n1;
	n = &n1;
	while (n != NULL) {
		n = n->next;
	}
	last = n;
	return 0;
}
`},
	} {
		if checkAgainstReference(t, tc.name, tc.src) == 0 {
			t.Errorf("%s: every points-to set is empty", tc.name)
		}
	}

	// The front end lowers assignments to loads, stores and phis and never
	// emits ir.Copy, so the copy rule is checked on a hand-built program:
	// y = x after x = &a, next to a z that is never assigned.
	build := func() *ir.Program {
		p := ir.NewProgram()
		a := p.NewObject(ir.ObjGlobal, "a", nil)
		f := p.NewFunc("main")
		b := f.NewBlock("entry")
		x, y := p.NewVar("main.x", f), p.NewVar("main.y", f)
		p.NewVar("main.z", f)
		b.Append(&ir.AddrOf{Dst: x, Obj: a})
		b.Append(&ir.Copy{Dst: y, Src: x})
		p.Finalize()
		return p
	}
	if got := checkProgsAgainstReference(t, "copy", build(), build()); got != 2 {
		t.Errorf("copy: %d non-empty points-to sets, want 2 (x and y)", got)
	}
}
