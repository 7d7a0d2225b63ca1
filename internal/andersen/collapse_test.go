package andersen

import (
	"context"
	"math"
	"testing"

	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/irbuild"
	"repro/internal/workload"
)

// compile parses and lowers src.
func compile(t *testing.T, name, src string) *ir.Program {
	t.Helper()
	f, err := parser.ParseChecked(name, src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := irbuild.BuildChecked(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// merged counts the nodes collapsed into another representative.
func (s *solver) merged() int {
	n := 0
	for i := range s.parent {
		if s.find(node(i)) != node(i) {
			n++
		}
	}
	return n
}

// sameRep fails unless every node in ns has one representative.
func sameRep(t *testing.T, s *solver, what string, ns ...node) {
	t.Helper()
	for _, n := range ns[1:] {
		if s.find(n) != s.find(ns[0]) {
			t.Errorf("%s: nodes %v do not share one representative", what, ns)
			return
		}
	}
}

func TestCycleCollapsing(t *testing.T) {
	// Static cycle: p and q are SSA locals swapped through tmp, so their
	// phis copy into each other in the initial constraints, and the offline
	// equivalence pass gives them one class before solving starts.
	prog := compile(t, "static.mc", `
int x; int y;
int *gp; int *gq;
int main() {
	int *p; int *q;
	p = &x;
	q = &y;
	while (1) {
		int *tmp;
		tmp = p;
		p = q;
		q = tmp;
	}
	gp = p;
	gq = q;
	return 0;
}
`)
	s := newSolver(context.Background(), prog)
	if err := s.seed(); err != nil {
		t.Fatal(err)
	}
	phis := map[string]node{}
	for _, st := range prog.Stmts {
		if phi, ok := st.(*ir.Phi); ok {
			phis[phi.Dst.Name] = s.varNode(phi.Dst)
		}
	}
	sameRep(t, s, "static", phis["main.p.phi"], phis["main.q.phi"])

	// Dynamic cycle: p and q are globals, so the cycle p → tmp → q → p
	// runs through the copy edges that load and store resolution adds
	// while solving. The program is far below the online sweep threshold;
	// one sweep over the solved graph must find it.
	prog = compile(t, "dynamic.mc", `
int x; int y;
int *p; int *q;
int main() {
	p = &x;
	q = &y;
	while (1) {
		int *tmp;
		tmp = p;
		p = q;
		q = tmp;
	}
	return 0;
}
`)
	s = newSolver(context.Background(), prog)
	if err := s.seed(); err != nil {
		t.Fatal(err)
	}
	if err := s.solve(); err != nil {
		t.Fatal(err)
	}
	r := s.result()
	pObj, qObj := objNamed(t, prog, "p"), objNamed(t, prog, "q")
	for _, o := range []*ir.Object{pObj, qObj} {
		if got := r.PointsToObj(o).Len(); got != 2 {
			t.Errorf("|pt(%s)| = %d, want 2 ({x, y})", o.Name, got)
		}
	}
	// The loaded value of p is what tmp is assigned in the loop.
	var tmp *ir.Var
	for _, st := range prog.Stmts {
		if phi, ok := st.(*ir.Phi); ok && phi.Dst.Name == "main.tmp.phi" {
			for _, in := range phi.Incoming {
				if in != nil && in.Name != "main.tmp.undef" {
					tmp = in
				}
			}
		}
	}
	if tmp == nil {
		t.Fatal("no loop value for tmp")
	}
	s.collapse()
	sameRep(t, s, "dynamic", s.objNode(pObj), s.objNode(qObj), s.varNode(tmp))
}

func objNamed(t *testing.T, p *ir.Program, name string) *ir.Object {
	t.Helper()
	for _, o := range p.Objects {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("no object named %q", name)
	return nil
}

// TestCollapseSchedule pins online collapsing and its doubling schedule on
// two suite programs whose cycles form only while solving. After the
// first sweep at minSweepEdges new edges, each sweep waits for the copy
// graph to double, so the sweep count is at most
// ⌈log₂(final / max(initial, minSweepEdges))⌉ + 1.
func TestCollapseSchedule(t *testing.T) {
	for _, name := range []string{"x264", "httpd_server"} {
		src, err := workload.Generate(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		s := newSolver(context.Background(), compile(t, name+".mc", src))
		if err := s.seed(); err != nil {
			t.Fatal(err)
		}
		initial, offline := s.edgeCount, s.merged()
		if err := s.solve(); err != nil {
			t.Fatal(err)
		}
		online := s.merged() - offline
		bound := int(math.Ceil(math.Log2(float64(s.edgeCount)/float64(max(initial, minSweepEdges))))) + 1
		t.Logf("%s@4: edges %d → %d, %d sweeps (bound %d), %d nodes merged online",
			name, initial, s.edgeCount, s.sweeps, bound, online)
		if s.sweeps == 0 || online == 0 {
			t.Errorf("%s@4: %d online sweeps merged %d nodes, want ≥ 1 of each", name, s.sweeps, online)
		}
		if s.sweeps > bound {
			t.Errorf("%s@4: %d online sweeps for %d → %d edges, want ≤ %d",
				name, s.sweeps, initial, s.edgeCount, bound)
		}
	}
}
