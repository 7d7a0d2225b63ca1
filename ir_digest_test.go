package fsam_test

// IR golden for the compiler: for every program of irCorpus, a SHA-256
// digest of the program text, the variable table, the object table and
// each statement's ID, line and block is pinned in
// testdata/ir_digests.golden. Any change to the
// lexer, parser, irbuild, mem2reg or ir must leave the file byte-identical:
// every later analysis indexes by these IDs and names. Regenerate after an
// intended change with:
//
//	go test . -run TestIRDigestsGolden -update-golden

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/workload"
)

// irDigest renders one line of digests over a compiled program.
func irDigest(t *testing.T, name, src string) string {
	t.Helper()
	prog, err := pipeline.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	text := sha256.Sum256([]byte(prog.String()))
	vars := sha256.New()
	for _, v := range prog.Vars {
		fn := ""
		if v.Func != nil {
			fn = v.Func.Name
		}
		fmt.Fprintf(vars, "%d %s %s\n", v.ID, v.Name, fn)
	}
	objs := sha256.New()
	for _, o := range prog.Objects {
		fmt.Fprintf(objs, "%d %s %s %t %d\n", o.ID, o.Name, o.Kind, o.IsArray, o.NumFields)
	}
	stmts := sha256.New()
	for _, s := range prog.Stmts {
		blk := s.Parent()
		fmt.Fprintf(stmts, "%d %d %s/%d\n", s.ID(), ir.LineOf(s), blk.Func.Name, blk.Index)
	}
	return fmt.Sprintf("%s prog=%x vars=%x objs=%x stmts=%x n=%d/%d/%d\n",
		name, text[:8], vars.Sum(nil)[:8], objs.Sum(nil)[:8], stmts.Sum(nil)[:8],
		len(prog.Vars), len(prog.Objects), len(prog.Stmts))
}

// irCorpus returns the programs the IR tests compile: the fixtures, every
// suite program at scales 1 and 3, a few random programs and irEdgeCases.
func irCorpus(t *testing.T) []struct{ name, src string } {
	t.Helper()
	var progs []struct{ name, src string }
	add := func(name, src string) { progs = append(progs, struct{ name, src string }{name, src}) }
	for _, path := range corpusPaths(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add(filepath.ToSlash(path), string(src))
	}
	for _, scale := range []int{1, 3} {
		for _, spec := range workload.Suite {
			add(fmt.Sprintf("%s@%d", spec.Name, scale), workload.GenerateSpec(spec, scale))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		add(fmt.Sprintf("threaded#%d", seed), randprog.Threaded(seed, 3))
		src, _ := randprog.Sequential(seed, 4, 4, 2, 30)
		add(fmt.Sprintf("sequential#%d", seed), src)
	}
	for _, c := range irEdgeCases {
		add("inline/"+c.name, c.src)
	}
	return progs
}

func TestIRDigestsGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range irCorpus(t) {
		b.WriteString(irDigest(t, p.name, p.src))
	}
	checkGolden(t, filepath.Join("testdata", "ir_digests.golden"), []byte(b.String()))
}

// TestCompiledVarsAreReferenced: the compiler registers only variables
// something references, numbered densely. Every Program.Vars[i] has ID i
// and is a parameter, a return slot, or defined or used by a statement,
// so no array sized by len(prog.Vars) carries dead entries.
func TestCompiledVarsAreReferenced(t *testing.T) {
	for _, p := range irCorpus(t) {
		prog, err := pipeline.Compile(p.name, p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		ref := make(map[*ir.Var]bool, len(prog.Vars))
		for _, f := range prog.Funcs {
			for _, v := range f.Params {
				ref[v] = true
			}
			if f.RetVar != nil {
				ref[f.RetVar] = true
			}
		}
		for _, s := range prog.Stmts {
			if d := ir.Def(s); d != nil {
				ref[d] = true
			}
			for _, u := range ir.Uses(s) {
				ref[u] = true
			}
		}
		dead := 0
		for i, v := range prog.Vars {
			if v.ID != ir.VarID(i) {
				t.Fatalf("%s: Vars[%d] has ID %d", p.name, i, v.ID)
			}
			if !ref[v] {
				if dead == 0 {
					t.Errorf("%s: Vars[%d] %s is not referenced", p.name, i, v.Name)
				}
				dead++
			}
		}
		if dead > 0 {
			t.Errorf("%s: %d of %d variables unreferenced", p.name, dead, len(prog.Vars))
		}
		for v := range ref {
			if int(v.ID) >= len(prog.Vars) || prog.Vars[v.ID] != v {
				t.Fatalf("%s: %s is referenced but not in Vars", p.name, v.Name)
			}
		}
	}
}

// irEdgeCases are small programs for the corners of scalar promotion that
// the fixtures and generated programs may not reach. They are inline, not
// testdata/*.mc fixtures, so they feed this golden alone.
var irEdgeCases = []struct{ name, src string }{
	// &x after earlier reads and writes keeps every access to x in memory.
	{"addr-after-access", `
int g; int *gp;
int main() {
	int x;
	x = 1;
	g = x;
	x = g;
	gp = &x;
	g = x;
	return 0;
}
`},
	// Only the shadow's address is taken: the outer y is promoted.
	{"shadow-escape", `
int g; int *gp;
int main() {
	int y;
	y = 2;
	{
		int y;
		y = 3;
		gp = &y;
		g = y;
	}
	g = y;
	return 0;
}
`},
	// u is unassigned on one path into the join, v on every path.
	{"undef", `
int g;
void f(int c) {
	int u;
	int v;
	if (c) { u = 1; }
	g = u;
	g = v;
}
int main() { f(g); return 0; }
`},
	// p's address is taken after reads and writes of the parameter.
	{"addr-param", `
int **gpp;
int f(int *p, int n) {
	int *q;
	q = p;
	gpp = &p;
	p = q;
	return n;
}
int main() { int a; f(&a, 2); return 0; }
`},
	// Global initializers run in main's scope after its parameters: &n and
	// the initializer of k name main's parameters, not globals.
	{"global-init", `
int gx; int k = 5;
int *gp = &gx;
int gi = 3;
int *gn = &n;
int main(int n, int k) {
	int j;
	j = k;
	gi = j;
	return 0;
}
`},
	{"nested-break-continue", `
int g;
int main() {
	int i; int j; int s;
	s = 0;
	for (i = 0; i < 4; i++) {
		j = 0;
		while (j < i) {
			j = j + 1;
			if (j == 2) { continue; }
			if (s > 9) { break; }
			s = s + j;
		}
		if (s > 20) break;
		continue;
	}
	g = s;
	return 0;
}
`},
	// Code after return is unreachable, but &b there still keeps b in
	// memory; c is promoted.
	{"dead-after-return", `
int g; int *gp;
int f(int a) {
	int b; int c;
	b = a;
	c = b;
	return c;
	b = 2;
	gp = &b;
	c = g;
	g = c;
}
int main() { g = f(1); return 0; }
`},
	// The loop head's first positioned statement is the read of i, a line
	// above the call: the head's phi takes the read's line.
	{"phi-line", `
int g;
int h(int v) { return v; }
int main() {
	int i;
	i = 0;
	while (i
	       < h(i)) {
		i = i + 1;
	}
	g = i;
	return 0;
}
`},
	// Unbraced declarations as if and loop bodies land in the enclosing
	// scope (if, while) or in the for scope.
	{"unbraced-decls", `
int g; int *gp;
int main() {
	int c;
	c = g;
	if (c) int w = 1;
	gp = &w;
	for (int k = 0; k < 3; k = k + 1) gp = &k;
	while (c) int z = c;
	g = z;
	return 0;
}
`},
}
