package fsam_test

// IR golden for the compiler: for every fixture, every suite program at
// scales 1 and 3 and a few random programs, a SHA-256 digest of the program
// text, the variable table, the object table and each statement's ID, line
// and block is pinned in testdata/ir_digests.golden. Any change to the
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

func TestIRDigestsGolden(t *testing.T) {
	var b strings.Builder
	for _, path := range corpusPaths(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(irDigest(t, filepath.ToSlash(path), string(src)))
	}
	for _, scale := range []int{1, 3} {
		for _, spec := range workload.Suite {
			name := fmt.Sprintf("%s@%d", spec.Name, scale)
			b.WriteString(irDigest(t, name, workload.GenerateSpec(spec, scale)))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		b.WriteString(irDigest(t, fmt.Sprintf("threaded#%d", seed), randprog.Threaded(seed, 3)))
		src, _ := randprog.Sequential(seed, 4, 4, 2, 30)
		b.WriteString(irDigest(t, fmt.Sprintf("sequential#%d", seed), src))
	}
	checkGolden(t, filepath.Join("testdata", "ir_digests.golden"), []byte(b.String()))
}
