package parser_test

import (
	"strings"
	"testing"

	"repro/internal/frontend/ast"
	"repro/internal/frontend/parser"
	"repro/internal/frontend/types"
)

// parse parses src, failing on errors.
func parse(t *testing.T, src string) *ast.File {
	t.Helper()
	f, errs := parser.Parse("test.mc", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f
}

func TestGlobalsAndTypes(t *testing.T) {
	f := parse(t, `
int a;
int *p;
int **pp;
int arr[10];
thread_t tid;
lock_t m;
char *name;
int main() { return 0; }
`)
	if len(f.Globals) != 7 {
		t.Fatalf("globals = %d, want 7", len(f.Globals))
	}
	wantTypes := []string{"int", "int*", "int**", "int[10]", "thread_t", "lock_t", "char*"}
	for i, g := range f.Globals {
		if g.Type.String() != wantTypes[i] {
			t.Errorf("global %s type %s, want %s", g.Name, g.Type, wantTypes[i])
		}
	}
}

func TestStructDeclAndFields(t *testing.T) {
	f := parse(t, `
struct Node { int val; struct Node *next; int *data; };
struct Node head;
int main() { return 0; }
`)
	if len(f.Structs) != 1 {
		t.Fatalf("structs = %d", len(f.Structs))
	}
	st := f.Structs[0].Type
	if st.FieldIndex("val") != 0 || st.FieldIndex("next") != 1 || st.FieldIndex("data") != 2 {
		t.Errorf("field indices wrong: %+v", st.Fields)
	}
	if st.FieldIndex("missing") != -1 {
		t.Error("missing field must be -1")
	}
	// Self-referential pointer type resolves to the same struct.
	next := st.Fields[1].Type.(*types.Pointer).Elem.(*types.Struct)
	if next != st {
		t.Error("struct Node *next must reference the same struct type")
	}
}

func TestFunctionsAndParams(t *testing.T) {
	f := parse(t, `
int add(int a, int b) { return a + b; }
void nothing(void) { }
int *find(struct S *where, int key);
struct S { int k; };
int main() { return 0; }
`)
	if len(f.Funcs) != 4 {
		t.Fatalf("funcs = %d", len(f.Funcs))
	}
	add := f.Funcs[0]
	if len(add.Params) != 2 || add.Params[0].Name != "a" {
		t.Errorf("add params: %+v", add.Params)
	}
	if f.Funcs[1].Body == nil {
		t.Error("nothing must have a body")
	}
	if f.Funcs[2].Body != nil {
		t.Error("prototype must have no body")
	}
	sig := add.Signature()
	if sig.Ret != types.Int || len(sig.Params) != 2 {
		t.Errorf("signature: %v", sig)
	}
}

func TestControlFlowStatements(t *testing.T) {
	f := parse(t, `
int main() {
	int i;
	if (i > 0) { i = 1; } else { i = 2; }
	while (i < 10) { i++; }
	for (i = 0; i < 5; i++) { continue; }
	for (;;) { break; }
	return i;
}
`)
	body := f.Funcs[0].Body.Stmts
	if _, ok := body[1].(*ast.IfStmt); !ok {
		t.Errorf("stmt 1 = %T, want IfStmt", body[1])
	}
	if _, ok := body[2].(*ast.WhileStmt); !ok {
		t.Errorf("stmt 2 = %T, want WhileStmt", body[2])
	}
	forStmt, ok := body[3].(*ast.ForStmt)
	if !ok || forStmt.Init == nil || forStmt.Cond == nil || forStmt.Post == nil {
		t.Errorf("stmt 3 = %T (%+v)", body[3], body[3])
	}
	bare, ok := body[4].(*ast.ForStmt)
	if !ok || bare.Init != nil || bare.Cond != nil || bare.Post != nil {
		t.Errorf("bare for: %+v", body[4])
	}
}

func TestExpressionPrecedence(t *testing.T) {
	f := parse(t, `int main() { int x; x = 1 + 2 * 3; return 0; }`)
	assign := f.Funcs[0].Body.Stmts[1].(*ast.AssignStmt)
	add, ok := assign.RHS.(*ast.Binary)
	if !ok {
		t.Fatalf("RHS = %T", assign.RHS)
	}
	// 1 + (2*3): top must be +, right child *.
	if _, ok := add.Y.(*ast.Binary); !ok {
		t.Errorf("precedence wrong: %+v", add)
	}
}

func TestPointerExpressions(t *testing.T) {
	f := parse(t, `
struct S { int *f; };
int main() {
	struct S s; struct S *ps; int x; int *p; int a[4];
	p = &x;
	x = *p;
	ps = &s;
	ps->f = p;
	s.f = p;
	a[2] = x;
	return 0;
}
`)
	stmts := f.Funcs[0].Body.Stmts
	// ps->f = p
	arrow := stmts[8].(*ast.AssignStmt).LHS.(*ast.FieldSel)
	if !arrow.Arrow || arrow.Name != "f" {
		t.Errorf("arrow field: %+v", arrow)
	}
	dot := stmts[9].(*ast.AssignStmt).LHS.(*ast.FieldSel)
	if dot.Arrow {
		t.Errorf("dot field parsed as arrow")
	}
	if _, ok := stmts[10].(*ast.AssignStmt).LHS.(*ast.Index); !ok {
		t.Errorf("index assignment: %+v", stmts[10])
	}
}

func TestSpawnJoinLockUnlock(t *testing.T) {
	f := parse(t, `
void w(void *a) { }
int main() {
	lock_t m;
	thread_t t;
	t = spawn(w, NULL);
	lock(&m);
	unlock(&m);
	join(t);
	return 0;
}
`)
	stmts := f.Funcs[1].Body.Stmts
	sp := stmts[2].(*ast.AssignStmt).RHS.(*ast.SpawnExpr)
	if sp.Routine.(*ast.Ident).Name != "w" {
		t.Errorf("spawn routine: %+v", sp.Routine)
	}
	if _, ok := sp.Arg.(*ast.NullLit); !ok {
		t.Errorf("spawn arg: %T", sp.Arg)
	}
	if _, ok := stmts[3].(*ast.LockStmt); !ok {
		t.Errorf("lock: %T", stmts[3])
	}
	if _, ok := stmts[4].(*ast.UnlockStmt); !ok {
		t.Errorf("unlock: %T", stmts[4])
	}
	if _, ok := stmts[5].(*ast.JoinStmt); !ok {
		t.Errorf("join: %T", stmts[5])
	}
}

func TestMallocWithAndWithoutSize(t *testing.T) {
	f := parse(t, `int main() { int *p; p = malloc(); p = malloc(32); return 0; }`)
	stmts := f.Funcs[0].Body.Stmts
	for _, i := range []int{1, 2} {
		if _, ok := stmts[i].(*ast.AssignStmt).RHS.(*ast.MallocExpr); !ok {
			t.Errorf("stmt %d RHS: %T", i, stmts[i].(*ast.AssignStmt).RHS)
		}
	}
}

func TestCallExpressions(t *testing.T) {
	f := parse(t, `
int g(int a) { return a; }
int main() {
	int x;
	x = g(1);
	g(x);
	return 0;
}
`)
	stmts := f.Funcs[1].Body.Stmts
	if _, ok := stmts[1].(*ast.AssignStmt).RHS.(*ast.CallExpr); !ok {
		t.Error("call in assignment")
	}
	if _, ok := stmts[2].(*ast.ExprStmt).X.(*ast.CallExpr); !ok {
		t.Error("call statement")
	}
}

func TestIncDecDesugar(t *testing.T) {
	f := parse(t, `int main() { int i; i++; i--; return 0; }`)
	stmts := f.Funcs[0].Body.Stmts
	for _, idx := range []int{1, 2} {
		as, ok := stmts[idx].(*ast.AssignStmt)
		if !ok {
			t.Fatalf("stmt %d: %T", idx, stmts[idx])
		}
		if _, ok := as.RHS.(*ast.Binary); !ok {
			t.Errorf("stmt %d RHS: %T", idx, as.RHS)
		}
	}
}

func TestGlobalInitializers(t *testing.T) {
	f := parse(t, `
int x;
int *p = &x;
int n = 3;
int main() { return 0; }
`)
	if f.Globals[1].Init == nil || f.Globals[2].Init == nil {
		t.Error("initializers not captured")
	}
	if _, ok := f.Globals[1].Init.(*ast.Unary); !ok {
		t.Errorf("&x init: %T", f.Globals[1].Init)
	}
}

func TestSyntaxErrorsRecovered(t *testing.T) {
	_, errs := parser.Parse("bad.mc", `
int main() {
	int x = ;
	x = 1;
	return 0;
}
`)
	if len(errs) == 0 {
		t.Error("expected syntax errors")
	}
}

func TestErrorHasPosition(t *testing.T) {
	_, errs := parser.Parse("bad.mc", "int main() { @ }")
	if len(errs) == 0 {
		t.Fatal("expected errors")
	}
	if errs[0].Error() == "" {
		t.Error("empty error message")
	}
}

func TestParseCheckedReturnsPositionedError(t *testing.T) {
	f, err := parser.ParseChecked("bad.mc", "int main( {")
	if err == nil {
		t.Fatal("ParseChecked must return an error on bad input, not panic")
	}
	if f != nil {
		t.Error("ParseChecked must return a nil file on error")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "bad.mc:1:") {
		t.Errorf("error %q lacks a file:line:col position prefix", msg)
	}
}

func TestParseCheckedOK(t *testing.T) {
	f, err := parser.ParseChecked("ok.mc", "int main() { return 0; }")
	if err != nil {
		t.Fatalf("ParseChecked: %v", err)
	}
	if len(f.Funcs) != 1 {
		t.Fatalf("got %d funcs, want 1", len(f.Funcs))
	}
}

func TestDeepNestingIsErrorNotStackOverflow(t *testing.T) {
	src := "int main() { int x; x = " + strings.Repeat("(", 100000) + "1" +
		strings.Repeat(")", 100000) + "; return 0; }"
	_, errs := parser.Parse("deep.mc", src)
	if len(errs) == 0 {
		t.Fatal("expected a nesting-depth error")
	}
}

func TestLogicalOperators(t *testing.T) {
	parse(t, `int main() { int a; int b; if (a > 0 && b < 2 || !a) { a = 1; } return 0; }`)
}

func TestNestedParens(t *testing.T) {
	f := parse(t, `int main() { int x; x = ((1 + 2)) * 3; return 0; }`)
	assign := f.Funcs[0].Body.Stmts[1].(*ast.AssignStmt)
	top := assign.RHS.(*ast.Binary)
	if _, ok := top.X.(*ast.Binary); !ok {
		t.Error("parenthesized group must bind first")
	}
}

// TestLexicalErrorsFirst: every lexical error is reported ahead of every
// syntax error, even one earlier in the file, so ParseChecked's "first
// error (and N more)" text names the lexical one. The depth bail must
// still reach the lexical errors behind it.
func TestLexicalErrorsFirst(t *testing.T) {
	deep := "int main() { int x; x = " + strings.Repeat("(", 300) + "1;\n}\n"
	for _, tc := range []struct {
		name, src string
		want      []string // leading errors, in order
		checked   string
	}{
		{
			name: "illegal character",
			src:  "int x = ;\nint main() { return 0; }\nint y; $\n",
			want: []string{
				"3:8: unexpected character '$'",
				"1:9: expected expression, found ;",
				"2:1: expected ;, found int",
				"3:8: unexpected token ILLEGAL at top level",
			},
			checked: "t.mc:3:8: unexpected character '$' (and 3 more)",
		},
		{
			name: "unterminated comment",
			src:  "int x = ;\nint main() { return 0; }\n/* never closed\n",
			want: []string{
				"3:1: unterminated block comment",
				"1:9: expected expression, found ;",
				"2:1: expected ;, found int",
			},
			checked: "t.mc:3:1: unterminated block comment (and 2 more)",
		},
		{
			name: "depth bail then illegal character",
			src:  deep + "int y; $\n",
			want: []string{
				"3:8: unexpected character '$'",
				"1:280: nesting deeper than 256 levels",
				"4:1: expected ), found EOF",
			},
			checked: "t.mc:3:8: unexpected character '$' (and 258 more)",
		},
		{
			name: "depth bail then unterminated comment",
			src:  deep + "/* never closed",
			want: []string{
				"3:1: unterminated block comment",
				"1:280: nesting deeper than 256 levels",
				"3:16: expected ), found EOF",
			},
			checked: "t.mc:3:1: unterminated block comment (and 258 more)",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, errs := parser.Parse("t.mc", tc.src)
			if len(errs) < len(tc.want) {
				t.Fatalf("got %d errors %v, want at least %d", len(errs), errs, len(tc.want))
			}
			for i, w := range tc.want {
				if got := errs[i].Error(); got != w {
					t.Errorf("error %d = %q, want %q", i, got, w)
				}
			}
			_, err := parser.ParseChecked("t.mc", tc.src)
			if err == nil || err.Error() != tc.checked {
				t.Errorf("ParseChecked = %v, want %q", err, tc.checked)
			}
		})
	}
}
