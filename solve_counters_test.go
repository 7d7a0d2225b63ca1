package fsam_test

// Counter golden for the two sparse solves: for every fixture and every
// suite program at scale 1, under each memory model, the work the fsam and
// tmod engines did (pops, interference rounds, per-thread pops, interned
// set sharing) and a digest of every variable's and global's points-to set
// are pinned in testdata/solve_counters.golden. A refactor of the sparse
// solver must leave the file byte-identical. Regenerate after an intended
// change with:
//
//	go test . -run TestSolveCountersGolden -update-golden

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fsam "repro"
	"repro/internal/ir"
	"repro/internal/workload"
)

// solveCounters renders one engine run's counters and points-to digests.
func solveCounters(t *testing.T, name, src, engine, mm string) string {
	t.Helper()
	a, err := fsam.AnalyzeSource(name, src, fsam.Config{Engine: engine, MemModel: mm})
	if err != nil {
		t.Fatalf("%s %s@%s: %v", name, engine, mm, err)
	}
	if a.Stats.Degraded != "" {
		t.Fatalf("%s %s@%s degraded: %s", name, engine, mm, a.Stats.Degraded)
	}
	vars := sha256.New()
	for _, v := range a.Prog.Vars {
		fmt.Fprintf(vars, "%d:%s\n", v.ID, a.PointsToVar(v))
	}
	globals := sha256.New()
	for _, o := range a.Prog.Objects {
		if o.Kind != ir.ObjGlobal {
			continue
		}
		names, err := a.PointsToGlobal(o.Name)
		if err != nil {
			t.Fatalf("%s %s@%s: %v", name, engine, mm, err)
		}
		fmt.Fprintf(globals, "%s:%s\n", o.Name, strings.Join(names, ","))
	}
	var work string
	switch engine {
	case "fsam":
		rs := a.Result.InternStats()
		work = fmt.Sprintf("iterations=%d unique=%d refs=%d",
			a.Result.Iterations, rs.Unique, rs.Refs)
	case "tmod":
		rs := a.Tmod.InternStats()
		work = fmt.Sprintf("iterations=%d rounds=%d threadpops=%v unique=%d refs=%d",
			a.Tmod.Iterations, a.Tmod.Rounds, a.Tmod.ThreadPops, rs.Unique, rs.Refs)
	}
	return fmt.Sprintf("%s %s@%s %s vars=%x globals=%x\n",
		name, engine, mm, work, vars.Sum(nil)[:8], globals.Sum(nil)[:8])
}

func TestSolveCountersGolden(t *testing.T) {
	type prog struct{ name, src string }
	var progs []prog
	for _, path := range corpusPaths(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{filepath.ToSlash(path), string(src)})
	}
	for _, spec := range workload.Suite {
		progs = append(progs, prog{spec.Name + "@1", workload.GenerateSpec(spec, 1)})
	}
	var b strings.Builder
	for _, p := range progs {
		for _, mm := range memModelChain {
			for _, engine := range []string{"fsam", "tmod"} {
				b.WriteString(solveCounters(t, p.name, p.src, engine, mm))
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "solve_counters.golden"), []byte(b.String()))
}
