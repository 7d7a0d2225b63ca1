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

// graphSummary renders the sorted edge multiset of b's graph (out-edges and
// the LoadIn mirror), its node multiset and its five counters, with the
// [THREAD-VF] hubs expanded: every path chi → hub → … → target becomes the
// edge chi → target, unless it is a self pair or repeats a constructed
// thread-oblivious edge (which the pair enumeration never adds), and hub
// nodes are left out. Out-edges are expanded forwards through Out and the
// LoadIn mirror backwards through In, so each is compared on its own. A
// graph without hubs renders as it is.
func graphSummary(b *gbuilder) string {
	g := b.g
	isHub := func(id int) bool { return id >= 0 && g.Nodes[id].Kind == MHub }
	var lines []string
	edge := func(from *MemNode, e Edge) {
		to := ""
		if e.ToMem >= 0 {
			to = nodeKey(g.Nodes[e.ToMem])
		} else {
			to = fmt.Sprintf("load#%d", e.ToLoad.ID())
		}
		lines = append(lines, fmt.Sprintf("edge %s -> %s thread=%v ungated=%v", nodeKey(from), to, e.ThreadAware, e.Ungated))
	}
	// The constructed edges are kept by logical ID.
	logOf := func(id int) int { return int(b.logOf[id]) }
	// expand emits chi's edges through hub h to h's final targets.
	var expand func(chi *MemNode, h int)
	expand = func(chi *MemNode, h int) {
		for _, e := range g.Out[h] {
			switch {
			case isHub(e.ToMem):
				expand(chi, e.ToMem)
			case e.ToMem == chi.ID, e.ToMem >= 0 && b.oblMem.has(logOf(e.ToMem), logOf(chi.ID)):
			case e.ToLoad != nil && b.oblLoad.has(int(e.ToLoad.ID()), logOf(chi.ID)):
			default:
				edge(chi, e)
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == MHub {
			continue
		}
		lines = append(lines, "node "+nodeKey(n))
		for _, e := range g.Out[n.ID] {
			if isHub(e.ToMem) {
				expand(n, e.ToMem)
			} else {
				edge(n, e)
			}
		}
	}
	// sources calls f with every chi a path through hub h starts from.
	var sources func(h int, f func(src int))
	sources = func(h int, f func(src int)) {
		for _, src := range g.In[h] {
			if isHub(src) {
				sources(src, f)
			} else {
				f(src)
			}
		}
	}
	for l, in := range g.LoadIn {
		for _, e := range in {
			loadin := func(src int) {
				lines = append(lines, fmt.Sprintf("loadin load#%d <- %s thread=%v ungated=%v",
					l.ID(), nodeKey(g.Nodes[src]), e.ThreadAware, e.Ungated))
			}
			if !isHub(e.ToMem) {
				loadin(e.ToMem)
				continue
			}
			sources(e.ToMem, func(src int) {
				if !b.oblLoad.has(int(l.ID()), logOf(src)) {
					loadin(src)
				}
			})
		}
	}
	slices.Sort(lines)
	lines = append(lines, fmt.Sprintf("counters oblivious=%d thread=%d lock=%d vf=%d escape=%d",
		g.ObliviousEdges, g.ThreadEdges, g.FilteredByLock, g.FilteredByVF, g.FilteredByEscape))
	return strings.Join(lines, "\n")
}

// checkStoredShape fails unless g holds exactly its counted edges and its
// hubs have distinct names, and returns the number of hubs.
func checkStoredShape(t *testing.T, where string, g *Graph) int {
	t.Helper()
	names := map[string]bool{}
	hubs := 0
	for _, n := range g.Nodes {
		if n.Kind != MHub {
			continue
		}
		hubs++
		if k := nodeKey(n); names[k] {
			t.Fatalf("%s: two hubs named %s", where, k)
		} else {
			names[k] = true
		}
	}
	if hubs != g.ThreadHubs {
		t.Fatalf("%s: %d hub nodes, ThreadHubs=%d", where, hubs, g.ThreadHubs)
	}
	if n := g.NumEdges(); n > g.ObliviousEdges+g.StoredThreadEdges {
		t.Fatalf("%s: graph holds %d edges, counters say %d+%d", where, n, g.ObliviousEdges, g.StoredThreadEdges)
	}
	return hubs
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

// threadTotals sums counters over the graphs checkAgainstReference built.
type threadTotals struct {
	edges, lockFiltered, stored, hubs int
}

// checkAgainstReference builds src under every option set with
// buildThreadAware and with the reference enumeration and requires equal
// summaries, hubs expanded. It returns the totals of the counters.
func checkAgainstReference(t *testing.T, name, src string) threadTotals {
	t.Helper()
	b, err := pipeline.FromSource(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var tot threadTotals
	for _, set := range optionSets {
		opt := set.opt(b)
		where := name + "/" + set.name
		got, err := buildSequential(context.Background(), b.Model, opt, true)
		if err == nil {
			err = got.buildThreadAware()
		}
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		want, err := buildReference(b.Model, opt)
		if err != nil {
			t.Fatalf("%s: reference: %v", where, err)
		}
		if gs, ws := graphSummary(got), graphSummary(want); gs != ws {
			t.Fatalf("%s: graph differs from the reference enumeration\n%s", where, diffLines(gs, ws))
		}
		g := got.g
		tot.hubs += checkStoredShape(t, where, g)
		tot.edges += g.ThreadEdges
		tot.lockFiltered += g.FilteredByLock
		tot.stored += g.StoredThreadEdges
	}
	return tot
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
		tot := checkAgainstReference(t, filepath.Base(p), string(src))
		edges, filtered = edges+tot.edges, filtered+tot.lockFiltered
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
	if tot := checkAgainstReference(t, "mixed.mc", mixedSpans); tot.edges == 0 {
		t.Error("no thread-aware edges")
	}
}

// forkLoop spawns its workers in a loop: the worker's accesses of each
// object share one class, whose instance pairs all may happen in parallel,
// so the class pair is wired through a hub.
const forkLoop = `
int a; int b;
int *p; int *q;
int *sink;
void worker(void *arg) {
	*p = &a; *p = &b; *p = &a;
	sink = *q; sink = *q; sink = *q;
}
int main() {
	thread_t pool[4];
	int i;
	p = &a; q = &a;
	for (i = 0; i < 4; i++) {
		pool[i] = spawn(worker, NULL);
	}
	sink = *q;
	for (i = 0; i < 4; i++) {
		join(pool[i]);
	}
	return 0;
}
`

func TestThreadAwareHubsForkLoop(t *testing.T) {
	checkAgainstReference(t, "forkloop.mc", forkLoop)
	b, err := pipeline.FromSource("forkloop.mc", forkLoop)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildCtx(context.Background(), b.Model, optionSets[0].opt(b))
	if err != nil {
		t.Fatal(err)
	}
	if g.ThreadHubs == 0 || g.StoredThreadEdges >= g.ThreadEdges {
		t.Errorf("hubs must factor the fork loop's edges: %d thread-aware edges stored as %d through %d hubs",
			g.ThreadEdges, g.StoredThreadEdges, g.ThreadHubs)
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
		edges += checkAgainstReference(t, fmt.Sprintf("seed%d.mc", seed), randprog.Threaded(seed, 3)).edges
	}
	if edges == 0 {
		t.Error("no thread-aware edges on any random threaded program")
	}
}

// TestDotDeterministic builds every fixture and the hub-wired fork loop
// twice under every option set and requires byte-equal DOT dumps: node IDs
// and edge order must not depend on map iteration order.
func TestDotDeterministic(t *testing.T) {
	names, srcs := []string{"forkloop.mc"}, []string{forkLoop}
	for _, p := range fixtures(t) {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		names, srcs = append(names, filepath.Base(p)), append(srcs, string(src))
	}
	for i, name := range names {
		b, err := pipeline.FromSource(name, srcs[i])
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
				t.Fatalf("%s/%s: two builds render different DOT\n%s", name, set.name, diffLines(dots[1], dots[0]))
			}
		}
	}
}

// BenchmarkBuildThreadAware times [THREAD-VF] construction alone on the
// two largest suite programs under the default pipeline's options; the
// analyses and the compacted thread-oblivious graph are built outside the
// timer, and the adjacency, which [THREAD-VF] sizes for its hubs, inside.
// It reports the logical [THREAD-VF] edges, the edges stored for them and
// the hubs they go through.
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
			var g *Graph
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
				g = gb.g
			}
			bm.ReportMetric(float64(g.ThreadEdges), "thread-edges")
			bm.ReportMetric(float64(g.StoredThreadEdges), "stored-edges")
			bm.ReportMetric(float64(g.ThreadHubs), "hubs")
		})
	}
}
