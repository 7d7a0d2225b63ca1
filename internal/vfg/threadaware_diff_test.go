package vfg

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/escape"
	"repro/internal/locks"
	"repro/internal/pcg"
	"repro/internal/pipeline"
	"repro/internal/randprog"
	"repro/internal/workload"
)

// optionSet names one [THREAD-VF] configuration of the differential tests.
type optionSet struct {
	name string
	opt  func(b *pipeline.Base) Options
}

// optionSets are the configurations buildThreadAware is checked under:
// the default pipeline's, the No-Lock and No-Escape-Prune variants, the
// No-Interleaving (PCG) ablation and the No-Value-Flow ablation.
var optionSets = []optionSet{
	{"interleave+locks+escape", func(b *pipeline.Base) Options {
		return Options{Interleave: b.Interleavings(), Locks: locks.Analyze(b.Model), Escape: escape.Analyze(b.Model)}
	}},
	{"interleave", func(b *pipeline.Base) Options {
		return Options{Interleave: b.Interleavings()}
	}},
	{"interleave+locks", func(b *pipeline.Base) Options {
		return Options{Interleave: b.Interleavings(), Locks: locks.Analyze(b.Model)}
	}},
	{"pcg+locks", func(b *pipeline.Base) Options {
		return Options{PCG: pcg.Analyze(b.Model), Locks: locks.Analyze(b.Model)}
	}},
	{"novalueflow+interleave+locks", func(b *pipeline.Base) Options {
		return Options{Interleave: b.Interleavings(), Locks: locks.Analyze(b.Model), NoValueFlow: true}
	}},
}

// nodeKey names a node independently of its ID, which depends on
// construction order.
func nodeKey(n *MemNode) string {
	if n.Stmt != nil {
		return fmt.Sprintf("%s#%d", n, n.Stmt.ID())
	}
	return n.String()
}

// graphSummary renders the sorted edge multiset of g (out-edges and the
// LoadIn mirror), its node multiset and its five counters.
func graphSummary(g *Graph) string {
	var lines []string
	for _, n := range g.Nodes {
		lines = append(lines, "node "+nodeKey(n))
		for _, e := range g.Out[n.ID] {
			to := ""
			if e.ToMem >= 0 {
				to = nodeKey(g.Nodes[e.ToMem])
			} else {
				to = fmt.Sprintf("load#%d", e.ToLoad.ID())
			}
			lines = append(lines, fmt.Sprintf("edge %s -> %s thread=%v ungated=%v", nodeKey(n), to, e.ThreadAware, e.Ungated))
		}
	}
	for l, in := range g.LoadIn {
		for _, e := range in {
			lines = append(lines, fmt.Sprintf("loadin load#%d <- %s thread=%v ungated=%v",
				l.ID(), nodeKey(g.Nodes[e.ToMem]), e.ThreadAware, e.Ungated))
		}
	}
	slices.Sort(lines)
	lines = append(lines, fmt.Sprintf("counters oblivious=%d thread=%d lock=%d vf=%d escape=%d",
		g.ObliviousEdges, g.ThreadEdges, g.FilteredByLock, g.FilteredByVF, g.FilteredByEscape))
	return strings.Join(lines, "\n")
}

// diffLines returns the first differing line of two summaries.
func diffLines(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i, gl, wl)
		}
	}
	return ""
}

// checkAgainstReference builds src under every option set with
// buildThreadAware and with the reference enumeration and requires equal
// summaries. It returns the thread-aware edge and lock-filter totals.
func checkAgainstReference(t *testing.T, name, src string) (edges, lockFiltered int) {
	t.Helper()
	b, err := pipeline.FromSource(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, set := range optionSets {
		opt := set.opt(b)
		got, err := BuildCtx(context.Background(), b.Model, opt)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, set.name, err)
		}
		want, err := buildReference(b.Model, opt)
		if err != nil {
			t.Fatalf("%s/%s: reference: %v", name, set.name, err)
		}
		if gs, ws := graphSummary(got), graphSummary(want); gs != ws {
			t.Fatalf("%s/%s: graph differs from the reference enumeration\n%s", name, set.name, diffLines(gs, ws))
		}
		edges += got.ThreadEdges
		lockFiltered += got.FilteredByLock
	}
	return edges, lockFiltered
}

func fixtures(t testing.TB) []string {
	paths, err := filepath.Glob("../../testdata/*.mc")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	return paths
}

func TestThreadAwareMatchesReferenceCorpus(t *testing.T) {
	edges, filtered := 0, 0
	for _, p := range fixtures(t) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		e, f := checkAgainstReference(t, filepath.Base(p), string(src))
		edges, filtered = edges+e, filtered+f
	}
	if edges == 0 || filtered == 0 {
		t.Errorf("corpus exercised %d thread-aware edges and %d lock-filtered triples; want both > 0", edges, filtered)
	}
}

// mixedSpans runs put's stores both inside w1's lock span and outside any
// span in w2. The first store is no span tail, so its pair with r's locked
// load is non-interfering in w1 but not in w2: the edge must stay.
const mixedSpans = `
int o;
int *p; int *q;
lock_t m;
void put() { *p = &o; *p = NULL; }
void w1(void *arg) { lock(&m); put(); unlock(&m); }
void w2(void *arg) { put(); }
void r(void *arg) { lock(&m); int *v; v = *q; unlock(&m); }
int main() {
	p = &o; q = &o;
	thread_t a; thread_t b; thread_t c;
	a = spawn(w1, NULL);
	b = spawn(w2, NULL);
	c = spawn(r, NULL);
	join(a); join(b); join(c);
	return 0;
}
`

func TestThreadAwareMatchesReferenceMixedSpans(t *testing.T) {
	if edges, _ := checkAgainstReference(t, "mixed.mc", mixedSpans); edges == 0 {
		t.Error("no thread-aware edges")
	}
}

func TestThreadAwareMatchesReferenceSuite(t *testing.T) {
	for _, spec := range workload.Suite {
		checkAgainstReference(t, spec.Name, workload.GenerateSpec(spec, 1))
	}
}

func TestThreadAwareMatchesReferenceRandom(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 25
	}
	edges := 0
	for seed := int64(0); seed < seeds; seed++ {
		e, _ := checkAgainstReference(t, fmt.Sprintf("seed%d.mc", seed), randprog.Threaded(seed, 3))
		edges += e
	}
	if edges == 0 {
		t.Error("no thread-aware edges on any random threaded program")
	}
}

// TestDotDeterministic builds every fixture twice under every option set
// and requires byte-equal DOT dumps: node IDs and edge order must not
// depend on map iteration order.
func TestDotDeterministic(t *testing.T) {
	for _, p := range fixtures(t) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pipeline.FromSource(filepath.Base(p), string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range optionSets {
			opt := set.opt(b)
			var dots [2]string
			for i := range dots {
				var sb strings.Builder
				if err := BuildWithOptions(b.Model, opt).WriteDot(&sb); err != nil {
					t.Fatal(err)
				}
				dots[i] = sb.String()
			}
			if dots[0] != dots[1] {
				t.Fatalf("%s/%s: two builds render different DOT\n%s", filepath.Base(p), set.name, diffLines(dots[1], dots[0]))
			}
		}
	}
}

// BenchmarkBuildThreadAware times [THREAD-VF] construction alone on the
// two largest suite programs under the default pipeline's options; the
// analyses and the thread-oblivious graph are built outside the timer.
func BenchmarkBuildThreadAware(bm *testing.B) {
	for _, name := range []string{"x264", "raytrace"} {
		bm.Run(name, func(bm *testing.B) {
			src, err := workload.Generate(name, 4)
			if err != nil {
				bm.Fatal(err)
			}
			b, err := pipeline.FromSource(name+".mc", src)
			if err != nil {
				bm.Fatal(err)
			}
			opt := optionSets[0].opt(b)
			bm.ReportAllocs()
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				bm.StopTimer()
				gb, err := buildSequential(context.Background(), b.Model, opt, true)
				if err != nil {
					bm.Fatal(err)
				}
				bm.StartTimer()
				if err := gb.buildThreadAware(); err != nil {
					bm.Fatal(err)
				}
			}
		})
	}
}
