package andersen_test

import (
	"testing"

	"repro/internal/callgraph"
	"repro/internal/ir"
)

func TestSelfReferentialStruct(t *testing.T) {
	r := analyze(t, `
struct Node { struct Node *next; int v; };
struct Node a2; struct Node b2;
struct Node *walk;
int main() {
	a2.next = &b2;
	b2.next = &a2;
	walk = a2.next;
	walk = walk->next;
	return 0;
}
`)
	w := objByName(t, r.Prog, "walk")
	n := ptsNames(r, w)
	if !n["a2"] || !n["b2"] {
		t.Errorf("pt(walk) = %v, want both nodes", n)
	}
}

func TestNestedStructCollapse(t *testing.T) {
	// A struct-typed field collapses (field-insensitive at depth 2), but
	// remains sound: values stored through the inner field are retrievable.
	r := analyze(t, `
struct Inner { int *p; };
struct Outer { struct Inner in; int *q; };
struct Outer o;
int x;
int *got;
int main() {
	o.in.p = &x;
	got = o.in.p;
	return 0;
}
`)
	g := objByName(t, r.Prog, "got")
	if n := ptsNames(r, g); !n["x"] {
		t.Errorf("pt(got) = %v, want x", n)
	}
}

func TestHeapFieldSensitivity(t *testing.T) {
	r := analyze(t, `
struct Pair { int *a; int *b; };
struct Pair *hp;
int x; int y;
int *ga; int *gb;
int main() {
	hp = malloc();
	hp->a = &x;
	hp->b = &y;
	ga = hp->a;
	gb = hp->b;
	return 0;
}
`)
	ga := objByName(t, r.Prog, "ga")
	gb := objByName(t, r.Prog, "gb")
	na, nb := ptsNames(r, ga), ptsNames(r, gb)
	if !na["x"] || na["y"] {
		t.Errorf("pt(ga) = %v, want exactly {x}", na)
	}
	if !nb["y"] || nb["x"] {
		t.Errorf("pt(gb) = %v, want exactly {y}", nb)
	}
}

func TestChainOfIndirection(t *testing.T) {
	r := analyze(t, `
int x;
int *p1;
int **p2;
int ***p3;
int *out;
int main() {
	p1 = &x;
	p2 = &p1;
	p3 = &p2;
	out = **p3;
	return 0;
}
`)
	out := objByName(t, r.Prog, "out")
	if n := ptsNames(r, out); !n["x"] || len(n) != 1 {
		t.Errorf("pt(out) = %v, want exactly {x}", n)
	}
}

func TestCallersIndex(t *testing.T) {
	r := analyze(t, `
void callee() { }
void w(void *a) { callee(); }
int main() {
	callee();
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`)
	callers := callgraph.Build(r).CallersOf
	callee := r.Prog.FuncByName["callee"]
	if len(callers[callee]) != 2 {
		t.Errorf("callers of callee = %d, want 2", len(callers[callee]))
	}
	w := r.Prog.FuncByName["w"]
	if len(callers[w]) != 1 {
		t.Errorf("callers of w = %d, want 1 (the fork)", len(callers[w]))
	} else if _, ok := callers[w][0].(*ir.Fork); !ok {
		t.Errorf("caller of w = %v, want the fork", callers[w][0])
	}
}

func TestVarargMismatchTolerated(t *testing.T) {
	// More arguments than parameters (and vice versa) must not crash and
	// must bind the common prefix.
	r := analyze(t, `
int x;
int *g;
void f(int *a) { g = a; }
int main() {
	f(&x, 1, 2);
	return 0;
}
`)
	g := objByName(t, r.Prog, "g")
	if n := ptsNames(r, g); !n["x"] {
		t.Errorf("pt(g) = %v", n)
	}
}

func TestThreadHandleKind(t *testing.T) {
	r := analyze(t, `
void w(void *a) { }
int main() {
	thread_t t;
	t = spawn(w, NULL);
	join(t);
	return 0;
}
`)
	found := false
	for _, o := range r.Prog.Objects {
		if o.Kind == ir.ObjThread {
			found = true
		}
	}
	if !found {
		t.Error("fork must create a thread-handle object")
	}
}
