package locks

// Golden for the two interference analyses: for every fixture, every suite
// program at scales 1 and 3 and eight random threaded programs, a digest of
// the lock spans (thread, acquisition, context, member statements and
// access-reach pairs; never the span IDs) and of every statement's
// InstanceFacts is pinned in testdata/interference.golden. A change to the
// span or interleaving walkers must leave the file byte-identical.
// Regenerate after an intended change with:
//
//	go test ./internal/locks -run TestInterferenceGolden -update-golden

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/mhp"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/interference.golden")

// testProg is one named source in a differential or golden corpus.
type testProg struct{ name, src string }

// fixtureProgs returns the repository's fixture corpus, sorted by path.
func fixtureProgs(t *testing.T) []testProg {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("corpus glob: %v (%d files)", err, len(paths))
	}
	sort.Strings(paths)
	var out []testProg
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, testProg{filepath.Base(p), string(src)})
	}
	return out
}

// suiteProgs returns the Table 1 suite at one scale.
func suiteProgs(scale int) []testProg {
	var out []testProg
	for _, spec := range workload.Suite {
		out = append(out, testProg{fmt.Sprintf("%s@%d", spec.Name, scale), workload.GenerateSpec(spec, scale)})
	}
	return out
}

// threadedProgs returns randprog.Threaded programs for seeds lo..hi.
func threadedProgs(lo, hi int64) []testProg {
	var out []testProg
	for seed := lo; seed <= hi; seed++ {
		out = append(out, testProg{fmt.Sprintf("threaded#%d", seed), randprog.Threaded(seed, 3)})
	}
	return out
}

// spanLines renders each span as one line: thread, acquisition, context,
// member statements and access-reach pairs, the last two sorted. Members
// are read back through SpansOf's index, so the rendering does not depend
// on how a Span stores them.
func spanLines(b *pipeline.Base, r *Result) []string {
	ctxs := b.Model.Ctxs
	nodes := map[*Span][]string{}
	for key, spans := range r.spansOf {
		for _, sp := range spans {
			nodes[sp] = append(nodes[sp], fmt.Sprintf("%s:%d", ctxs.String(key.ctx), key.stmt))
		}
	}
	var out []string
	for _, sp := range r.Spans {
		acc := func(i int) string {
			a := sp.accesses[i]
			return fmt.Sprintf("%s:%d", ctxs.String(a.ctx), a.node.Stmt.ID())
		}
		var reach []string
		for i, rr := range sp.reach {
			for _, j := range rr {
				reach = append(reach, acc(i)+">"+acc(j))
			}
		}
		ns := nodes[sp]
		sort.Strings(ns)
		sort.Strings(reach)
		out = append(out, fmt.Sprintf("%s|%d|%s|%s|%s", sp.Thread, sp.Lock.ID(), ctxs.String(sp.Ctx),
			strings.Join(ns, ","), strings.Join(reach, ",")))
	}
	sort.Strings(out)
	return out
}

// factLines renders every statement's InstanceFacts, one line per
// instance, sorted.
func factLines(b *pipeline.Base, il *mhp.Result) []string {
	var out []string
	for _, s := range b.Prog.Stmts {
		for _, in := range il.InstanceFacts(s) {
			fact := "nil"
			if in.I != nil {
				fact = in.I.String()
			}
			out = append(out, fmt.Sprintf("%d %s %s %s", s.ID(), in.Thread, b.Model.Ctxs.String(in.Ctx), fact))
		}
	}
	sort.Strings(out)
	return out
}

func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestInterferenceGolden(t *testing.T) {
	progs := fixtureProgs(t)
	progs = append(progs, suiteProgs(1)...)
	progs = append(progs, suiteProgs(3)...)
	progs = append(progs, threadedProgs(1, 8)...)
	var buf bytes.Buffer
	for _, p := range progs {
		b, err := pipeline.FromSource(p.name, p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		spans := spanLines(b, Analyze(b.Model))
		facts := factLines(b, mhp.Analyze(b.Model))
		fmt.Fprintf(&buf, "%s spans=%d %s facts=%d %s\n", p.name, len(spans), digest(spans), len(facts), digest(facts))
	}
	path := filepath.Join("testdata", "interference.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (rerun with -update-golden?): %v", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s differs from golden (rerun with -update-golden if intended)\n--- got ---\n%s--- want ---\n%s",
			path, buf.Bytes(), want)
	}
}
