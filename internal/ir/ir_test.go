package ir_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// buildToy constructs a small two-block function program by hand.
func buildToy() (*ir.Program, *ir.Function) {
	p := ir.NewProgram()
	f := p.NewFunc("main")
	x := p.NewObject(ir.ObjGlobal, "x", nil)
	b0 := f.NewBlock("entry")
	b1 := f.NewBlock("next")
	b0.AddEdge(b1)
	v1 := p.NewVar("a", f)
	v2 := p.NewVar("b", f)
	b0.Append(&ir.AddrOf{Dst: v1, Obj: x})
	b1.Append(&ir.Copy{Dst: v2, Src: v1})
	b1.Append(&ir.Ret{Val: v2})
	p.Finalize()
	return p, f
}

func TestFinalizeAssignsDenseIDs(t *testing.T) {
	p, _ := buildToy()
	if p.NumStmts() != 3 {
		t.Fatalf("stmts = %d", p.NumStmts())
	}
	for i, s := range p.Stmts {
		if int(s.ID()) != i {
			t.Errorf("stmt %d has ID %d", i, s.ID())
		}
	}
}

func TestRefinalizeKeepsDense(t *testing.T) {
	p, f := buildToy()
	f.Blocks[0].Append(&ir.Ret{})
	p.Finalize()
	if p.NumStmts() != 4 {
		t.Fatalf("stmts after refinalize = %d", p.NumStmts())
	}
}

func TestDefAndUses(t *testing.T) {
	p := ir.NewProgram()
	f := p.NewFunc("main")
	a, b, c := p.NewVar("a", f), p.NewVar("b", f), p.NewVar("c", f)
	o := p.NewObject(ir.ObjGlobal, "o", nil)

	cases := []struct {
		s       ir.Stmt
		def     *ir.Var
		numUses int
	}{
		{&ir.AddrOf{Dst: a, Obj: o}, a, 0},
		{&ir.Copy{Dst: a, Src: b}, a, 1},
		{&ir.Load{Dst: a, Addr: b}, a, 1},
		{&ir.Store{Addr: a, Src: b}, nil, 2},
		{&ir.Phi{Dst: a, Incoming: []*ir.Var{b, nil, c}}, a, 2},
		{&ir.Gep{Dst: a, Base: b, Field: 1}, a, 1},
		{&ir.Call{Dst: a, CalleeVar: b, Args: []*ir.Var{c}}, a, 2},
		{&ir.Ret{Val: a}, nil, 1},
		{&ir.Ret{}, nil, 0},
		{&ir.Fork{Dst: a, RoutineVar: b, Arg: c, Handle: o}, a, 2},
		{&ir.Join{Handle: a}, nil, 1},
		{&ir.Lock{Ptr: a}, nil, 1},
		{&ir.Unlock{Ptr: a}, nil, 1},
	}
	for _, cse := range cases {
		if got := ir.Def(cse.s); got != cse.def {
			t.Errorf("Def(%s) = %v, want %v", cse.s, got, cse.def)
		}
		if got := len(ir.Uses(cse.s)); got != cse.numUses {
			t.Errorf("Uses(%s) = %d, want %d", cse.s, got, cse.numUses)
		}
	}
}

func TestRewriteUses(t *testing.T) {
	p := ir.NewProgram()
	f := p.NewFunc("main")
	a, b, z := p.NewVar("a", f), p.NewVar("b", f), p.NewVar("z", f)
	st := &ir.Store{Addr: a, Src: b}
	ir.RewriteUses(st, func(v *ir.Var) *ir.Var {
		if v == b {
			return z
		}
		return v
	})
	if st.Src != z || st.Addr != a {
		t.Errorf("rewrite: %s", st)
	}
}

func TestFieldObjMemoized(t *testing.T) {
	p := ir.NewProgram()
	s := p.NewObject(ir.ObjGlobal, "s", nil)
	s.NumFields = 3
	f1 := p.FieldObj(s, 1)
	f1again := p.FieldObj(s, 1)
	f2 := p.FieldObj(s, 2)
	if f1 != f1again {
		t.Error("field objects must be memoized")
	}
	if f1 == f2 {
		t.Error("distinct fields must be distinct objects")
	}
	if f1.Root() != s {
		t.Error("Root")
	}
	if got := len(p.FieldObjs(s)); got != 2 {
		t.Errorf("materialized fields = %d", got)
	}
}

func TestFieldObjCollapses(t *testing.T) {
	p := ir.NewProgram()
	arr := p.NewObject(ir.ObjGlobal, "arr", nil)
	arr.IsArray = true
	arr.NumFields = 2
	if p.FieldObj(arr, 1) != arr {
		t.Error("array fields collapse to the array")
	}
	scalar := p.NewObject(ir.ObjGlobal, "x", nil)
	if p.FieldObj(scalar, 0) != scalar {
		t.Error("scalar field access collapses")
	}
	s := p.NewObject(ir.ObjGlobal, "s", nil)
	s.NumFields = 2
	if p.FieldObj(s, 99) != s {
		t.Error("out-of-range field collapses to base")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	p := ir.NewProgram()
	f := p.NewFunc("main")
	b0 := f.NewBlock("entry")
	b1 := f.NewBlock("live")
	dead := f.NewBlock("dead")
	b0.AddEdge(b1)
	dead.AddEdge(b1) // dead predecessor of live block
	b0.Append(&ir.Ret{})
	_ = dead
	ir.RemoveUnreachable(f)
	if len(f.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(f.Blocks))
	}
	for _, pred := range b1.Preds {
		if pred == dead {
			t.Error("dead predecessor not removed")
		}
	}
	if f.Blocks[0].Index != 0 || f.Blocks[1].Index != 1 {
		t.Error("indices not renumbered")
	}
}

func TestRemoveUnreachableFixesPhis(t *testing.T) {
	p := ir.NewProgram()
	f := p.NewFunc("main")
	b0 := f.NewBlock("entry")
	b1 := f.NewBlock("merge")
	dead := f.NewBlock("dead")
	b0.AddEdge(b1)
	dead.AddEdge(b1)
	v1 := p.NewVar("v1", f)
	v2 := p.NewVar("v2", f)
	d := p.NewVar("d", f)
	phi := &ir.Phi{Dst: d, Incoming: []*ir.Var{v1, v2}}
	b1.Append(phi)
	ir.RemoveUnreachable(f)
	if len(phi.Incoming) != 1 || phi.Incoming[0] != v1 {
		t.Errorf("phi incoming after cleanup: %v", phi.Incoming)
	}
}

func TestLineInfo(t *testing.T) {
	s := &ir.Copy{}
	ir.SetLine(s, 42)
	if ir.LineOf(s) != 42 {
		t.Error("line info")
	}
}

func TestStringers(t *testing.T) {
	p, _ := buildToy()
	str := p.String()
	for _, want := range []string{"func main(", "a = &x", "b = a", "ret b"} {
		if !strings.Contains(str, want) {
			t.Errorf("program string missing %q:\n%s", want, str)
		}
	}
	if ir.ObjHeap.String() != "heap" || ir.ObjThread.String() != "thread" {
		t.Error("ObjKind strings")
	}
}

func TestBlockInsert(t *testing.T) {
	p := ir.NewProgram()
	f := p.NewFunc("main")
	b := f.NewBlock("entry")
	v := p.NewVar("v", f)
	b.Append(&ir.Ret{})
	b.Insert(0, &ir.Copy{Dst: v, Src: v})
	if _, ok := b.Stmts[0].(*ir.Copy); !ok {
		t.Error("Insert at head")
	}
	if _, ok := b.Stmts[1].(*ir.Ret); !ok {
		t.Error("original shifted")
	}
}

func TestStmtFunc(t *testing.T) {
	p, f := buildToy()
	if ir.StmtFunc(p.Stmts[0]) != f {
		t.Error("StmtFunc")
	}
	loose := &ir.Ret{}
	if ir.StmtFunc(loose) != nil {
		t.Error("unattached stmt has no func")
	}
}

// TestGlobalByName checks the name index behind global lookups: globals
// only, the first created under a name wins.
func TestGlobalByName(t *testing.T) {
	p := ir.NewProgram()
	g := p.NewObject(ir.ObjGlobal, "g", nil)
	p.NewObject(ir.ObjGlobal, "g", nil)
	p.NewObject(ir.ObjHeap, "h", nil)
	if p.GlobalByName["g"] != g {
		t.Errorf("GlobalByName[g] = %v, want the first global g", p.GlobalByName["g"])
	}
	if o := p.GlobalByName["h"]; o != nil {
		t.Errorf("heap object indexed as a global: %v", o)
	}
}
