// Package densegen generates thread-dense MiniC programs for the benchmark's
// thread_dense workload: many spawn sites (fork loops, nested forks, partial
// joins) whose routines read and write one shared web of pointer cells,
// partly under lock groups. On such programs the thread-aware [THREAD-VF]
// def-use edges outnumber the thread-oblivious ones several times over, so
// the def-use build and the sparse solve carry the analysis time and the
// Andersen pre-analysis is a small share — the regime the paper targets and
// the Table 1 suite barely reaches.
//
// Generation is deterministic: the same seed always yields the same bytes.
// Every parameter is drawn from a range capped here, not by the caller. The
// caps matter: thread-aware edges grow with the product of the accesses of
// every pair of concurrent routines, and an uncapped 16-routine variant
// produced over twelve million edges and a 44 s analysis.
package densegen

import (
	"fmt"
	"strings"
)

// Parameter ranges (inclusive). Every program draws its shape from these.
const (
	MinSpawnSites, MaxSpawnSites = 6, 12
	MinLockGroups, MaxLockGroups = 4, 8
	MinCells, MaxCells           = 40, 80
	MinTargets, MaxTargets       = 12, 24
	// accessBudget is the total number of shared-cell accesses spread over
	// all routines; per-routine work shrinks as the spawn-site count grows,
	// which keeps the pairwise edge count (and the analysis time) in a
	// narrow band across seeds.
	accessBudget = 2600
	// hotCells is how many cells each routine concentrates on; overlap
	// between routines' hot sets is what creates cross-thread def-use.
	minHot, maxHot = 10, 18
	loopForks      = 4
)

// Params is the shape of one generated program.
type Params struct {
	Seed       int64
	SpawnSites int
	LockGroups int
	Cells      int
	Targets    int
	// Accesses is the number of shared-cell statements per routine.
	Accesses int
}

// ParamsFor draws the program shape for seed.
func ParamsFor(seed int64) Params {
	r := newRNG(seed)
	p := Params{
		Seed:       seed,
		SpawnSites: r.between(MinSpawnSites, MaxSpawnSites),
		LockGroups: r.between(MinLockGroups, MaxLockGroups),
		Cells:      r.between(MinCells, MaxCells),
		Targets:    r.between(MinTargets, MaxTargets),
	}
	p.Accesses = accessBudget / p.SpawnSites
	return p
}

// Generate returns the MiniC source of the program for seed.
func Generate(seed int64) string {
	p := ParamsFor(seed)
	g := &gen{p: p, r: newRNG(seed ^ 0x5DEECE66D)}
	return g.program()
}

type gen struct {
	p Params
	r *rng
	b strings.Builder
}

func (g *gen) f(format string, args ...any) { fmt.Fprintf(&g.b, format, args...) }

// groupCells returns the cells lock group grp guards: the cells whose index
// is congruent to grp modulo the group count, within the first half of the
// web (the second half is only ever accessed unlocked).
func (g *gen) groupCells(grp int) []int {
	var out []int
	for c := grp; c < g.p.Cells/2; c += g.p.LockGroups {
		out = append(out, c)
	}
	return out
}

// site describes how one spawn site is placed.
type site struct {
	routine int
	loop    bool // forked in a loop (a Multi abstract thread)
	parent  int  // routine that spawns it (-1: main)
	phase   int  // main's fork/join phase (0 or 1) for main-spawned sites
	partial bool // joined only on one branch
}

func (g *gen) sites() []site {
	n := g.p.SpawnSites
	ss := make([]site, n)
	for i := range ss {
		ss[i] = site{routine: i, parent: -1, phase: g.r.intn(2)}
	}
	// Two fork loops, one nested fork per three sites (spawned by a
	// main-spawned routine with a lower index), and one partial join.
	ss[0].loop, ss[0].phase = true, 0
	ss[1].loop, ss[1].phase = true, 1
	for i := 3; i < n; i += 3 {
		ss[i].parent = 2 + g.r.intn(i-2)
		for ss[ss[i].parent].parent != -1 {
			ss[i].parent--
		}
	}
	for i := 2; i < n; i++ {
		if ss[i].parent == -1 && !ss[i].loop {
			ss[i].partial = true
			break
		}
	}
	return ss
}

func (g *gen) program() string {
	p := g.p
	g.f("// densegen seed %d: %d spawn sites, %d lock groups, %d cells, %d accesses/routine\n",
		p.Seed, p.SpawnSites, p.LockGroups, p.Cells, p.Accesses)
	for i := 0; i < p.Targets; i++ {
		g.f("int g%d;\n", i)
	}
	for i := 0; i < p.Cells; i++ {
		g.f("int *c%d;\n", i)
	}
	for i := 0; i < p.LockGroups; i++ {
		g.f("lock_t lk%d;\n", i)
	}
	g.f("int cond;\nint *sink;\n")

	ss := g.sites()
	for i := len(ss) - 1; i >= 0; i-- {
		g.routine(i, ss)
	}
	g.main(ss)
	return g.b.String()
}

// routine emits w<i>: a body of shared-cell accesses over its hot set, with
// locked sections, and the nested forks of sites whose parent it is.
func (g *gen) routine(i int, ss []site) {
	g.f("void w%d(void *arg) {\n", i)
	g.f("\tint *t;\n")
	var kids []int
	for j, s := range ss {
		if s.parent == i {
			kids = append(kids, j)
		}
	}
	for _, k := range kids {
		g.f("\tthread_t s%d;\n", k)
	}
	hot := g.hotSet()
	half := g.p.Accesses / 2
	g.accesses(hot, half)
	for _, k := range kids {
		g.f("\ts%d = spawn(w%d, NULL);\n", k, k)
	}
	g.accesses(hot, g.p.Accesses-half)
	for _, k := range kids {
		g.f("\tjoin(s%d);\n", k)
	}
	g.f("}\n")
}

func (g *gen) hotSet() []int {
	n := g.r.between(minHot, maxHot)
	hot := make([]int, n)
	for i := range hot {
		hot[i] = g.r.intn(g.p.Cells)
	}
	return hot
}

// accesses emits n shared-cell statements drawn from hot; one in
// thirty-two opens a locked section over a lock group's cells instead.
func (g *gen) accesses(hot []int, n int) {
	for k := 0; k < n; k++ {
		c := hot[g.r.intn(len(hot))]
		switch x := g.r.intn(32); {
		case x < 8:
			g.f("\tc%d = &g%d;\n", c, g.r.intn(g.p.Targets))
		case x < 16:
			g.f("\tt = c%d;\n", c)
		case x < 20:
			g.f("\tc%d = c%d;\n", c, hot[g.r.intn(len(hot))])
		case x < 25:
			g.f("\tsink = c%d;\n", c)
		case x < 31:
			g.f("\tif (cond > %d) { c%d = t; }\n", g.r.intn(5), c)
		default:
			grp := g.r.intn(g.p.LockGroups)
			cells := g.groupCells(grp)
			lc := cells[g.r.intn(len(cells))]
			g.f("\tlock(&lk%d);\n", grp)
			g.f("\tc%d = &g%d;\n", lc, g.r.intn(g.p.Targets))
			g.f("\tt = c%d;\n", lc)
			g.f("\tc%d = c%d;\n", cells[g.r.intn(len(cells))], lc)
			g.f("\tunlock(&lk%d);\n", grp)
		}
	}
}

// main emits the two fork/join phases over the main-spawned sites.
func (g *gen) main(ss []site) {
	g.f("int main() {\n")
	g.f("\tint *t;\n\tint i;\n")
	for j, s := range ss {
		if s.parent != -1 {
			continue
		}
		if s.loop {
			g.f("\tthread_t l%d[%d];\n", j, loopForks)
		} else {
			g.f("\tthread_t m%d;\n", j)
		}
	}
	for c := 0; c < g.p.Cells; c++ {
		g.f("\tc%d = &g%d;\n", c, g.r.intn(g.p.Targets))
	}
	for phase := 0; phase < 2; phase++ {
		var started []int
		for j, s := range ss {
			if s.parent != -1 || s.phase != phase {
				continue
			}
			started = append(started, j)
			if s.loop {
				g.f("\tfor (i = 0; i < %d; i++) {\n\t\tl%d[i] = spawn(w%d, NULL);\n\t}\n", loopForks, j, j)
			} else {
				g.f("\tm%d = spawn(w%d, NULL);\n", j, j)
			}
		}
		g.f("\tt = c%d;\n\tc%d = &g%d;\n", g.r.intn(g.p.Cells), g.r.intn(g.p.Cells), g.r.intn(g.p.Targets))
		for _, j := range started {
			s := ss[j]
			switch {
			case s.loop:
				// Pool threads are never joined (a detached worker pool), so
				// they overlap both phases.
			case s.partial:
				g.f("\tif (cond > 2) { join(m%d); }\n", j)
			default:
				g.f("\tjoin(m%d);\n", j)
			}
		}
	}
	for c := 0; c < g.p.Cells; c += 7 {
		g.f("\tsink = c%d;\n", c)
	}
	g.f("\treturn 0;\n}\n")
}

// rng is a splitmix64 generator, so output is stable across Go releases.
type rng struct{ s uint64 }

func newRNG(seed int64) *rng { return &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + 1} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }
