package fsam_test

// ICFG golden: for every fixture, every suite program at scales 1 and 3
// and a few random programs, a SHA-256 digest of the interprocedural CFG
// is pinned in testdata/icfg_digests.golden. The digest covers each node's
// ID, kind, function and statement, each node's Out and In lists in order,
// every function's entry, exit and node range, and the StmtNode and RetNode
// of every statement. The thread model, MHP and lock spans walk these lists
// in order, so a change to how the ICFG is stored must leave the file
// byte-identical. Regenerate after an intended change with:
//
//	go test . -run TestICFGDigestsGolden -update-golden

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/icfg"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/workload"
)

// nodeID is a node's ID, or -1 for nil.
func nodeID(n *icfg.Node) int {
	if n == nil {
		return -1
	}
	return n.ID
}

func writeEdges(h hash.Hash, es []icfg.Edge) {
	for _, e := range es {
		site := -1
		if e.Site != nil {
			site = int(e.Site.ID())
		}
		fmt.Fprintf(h, " (%d,%d,%d,%d)", e.From.ID, e.To.ID, e.Kind, site)
	}
	fmt.Fprintln(h)
}

// icfgDigest renders one line of digests over a program's ICFG.
func icfgDigest(t *testing.T, name, src string) string {
	t.Helper()
	prog, err := pipeline.Compile(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b, err := pipeline.BuildPre(context.Background(), prog, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g := b.G
	nodes, edges := sha256.New(), sha256.New()
	for _, n := range g.Nodes {
		sid := -1
		if n.Stmt != nil {
			sid = int(n.Stmt.ID())
		}
		fmt.Fprintf(nodes, "%d %d %s %d\n", n.ID, n.Kind, n.Func.Name, sid)
		fmt.Fprintf(edges, "%d out", n.ID)
		writeEdges(edges, n.Out)
		fmt.Fprintf(edges, "%d in", n.ID)
		writeEdges(edges, n.In)
	}
	funcs := sha256.New()
	for _, f := range prog.Funcs {
		lo, hi := g.NodeRange(f)
		fmt.Fprintf(funcs, "%s %d %d %d %d\n", f.Name, nodeID(g.EntryOf[f]), nodeID(g.ExitOf[f]), lo, hi)
	}
	stmts := sha256.New()
	for _, s := range prog.Stmts {
		fmt.Fprintf(stmts, "%d %d %d\n", s.ID(), nodeID(g.StmtNode[s]), nodeID(g.RetNode[s]))
	}
	n, e := g.Stats()
	return fmt.Sprintf("%s nodes=%x edges=%x funcs=%x stmts=%x n=%d/%d\n",
		name, nodes.Sum(nil)[:8], edges.Sum(nil)[:8], funcs.Sum(nil)[:8], stmts.Sum(nil)[:8], n, e)
}

func TestICFGDigestsGolden(t *testing.T) {
	var b strings.Builder
	for _, path := range corpusPaths(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(icfgDigest(t, filepath.ToSlash(path), string(src)))
	}
	for _, scale := range []int{1, 3} {
		for _, spec := range workload.Suite {
			name := fmt.Sprintf("%s@%d", spec.Name, scale)
			b.WriteString(icfgDigest(t, name, workload.GenerateSpec(spec, scale)))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		b.WriteString(icfgDigest(t, fmt.Sprintf("threaded#%d", seed), randprog.Threaded(seed, 3)))
		src, _ := randprog.Sequential(seed, 4, 4, 2, 30)
		b.WriteString(icfgDigest(t, fmt.Sprintf("sequential#%d", seed), src))
	}
	checkGolden(t, filepath.Join("testdata", "icfg_digests.golden"), []byte(b.String()))
}
