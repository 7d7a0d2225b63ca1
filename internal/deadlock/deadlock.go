// Package deadlock implements a static deadlock detector as a client of
// FSAM's interference analyses — the paper's second motivating application
// (Section 1 cites deadlock detection among the clients built on pointer
// analysis).
//
// The detector builds a lock-order graph: an edge L1 → L2 records a
// context-sensitive acquisition of L2 while L1 is held (the acquisition
// statement lies inside a lock-release span of L1). A candidate deadlock is
// a cycle in this graph whose edges can be exercised by concurrently
// running thread instances (verified pairwise with the interleaving
// analysis), the classic Goodlock condition.
package deadlock

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/threads"
)

// Acquisition is one context-sensitive lock acquisition performed while
// another lock is held.
type Acquisition struct {
	Held locks.Inst // an acquisition of Held-lock is in effect...
	Site locks.Inst // ...when Site acquires the new lock
	From *ir.Object // the held lock object
	To   *ir.Object // the newly acquired lock object
}

// Report is one candidate deadlock: a cycle of lock-order edges whose
// acquiring instances may all run in parallel pairwise.
type Report struct {
	// Cycle lists the lock objects in order; Cycle[i] is held while
	// Cycle[(i+1)%n] is acquired by Edges[i].
	Cycle []*ir.Object
	Edges []Acquisition
}

// lockPair keys the lock-order edge groups.
type lockPair struct{ from, to ir.ObjID }

// Detector bundles the inputs.
type Detector struct {
	Model *threads.Model
	MHP   *mhp.Result
	Locks *locks.Result
	// MaxCycle bounds cycle length (default 4).
	MaxCycle int
}

// edges computes the lock-order edges from the lock spans.
func (d *Detector) edges() []Acquisition {
	var out []Acquisition
	for _, t := range d.Model.Threads {
		for fc := range d.Model.Funcs(t) {
			for _, blk := range fc.Func.Blocks {
				for _, s := range blk.Stmts {
					l, ok := s.(*ir.Lock)
					if !ok {
						continue
					}
					inst := locks.Inst{Thread: t, Ctx: fc.Ctx, Stmt: l}
					spans := d.Locks.SpansOf(inst)
					// The acquired lock object(s): per pre-analysis.
					acquired := d.Model.Pre.PointsToVar(l.Ptr)
					for _, sp := range spans {
						if sp.Thread != t {
							continue
						}
						acquired.ForEach(func(id uint32) {
							to := d.Model.Prog.Objects[id]
							if to == sp.LockObj {
								return // re-acquisition of the same lock
							}
							out = append(out, Acquisition{
								Held: locks.Inst{Thread: t, Ctx: sp.Ctx, Stmt: sp.Lock},
								Site: inst,
								From: sp.LockObj,
								To:   to,
							})
						})
					}
				}
			}
		}
	}
	// Model.Funcs iterates a map, so edge discovery order varies between
	// runs; sort so witness selection in tryReport (first viable
	// assignment wins) is deterministic.
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.From.ID != b.From.ID {
			return a.From.ID < b.From.ID
		}
		if a.To.ID != b.To.ID {
			return a.To.ID < b.To.ID
		}
		if a.Site.Stmt.ID() != b.Site.Stmt.ID() {
			return a.Site.Stmt.ID() < b.Site.Stmt.ID()
		}
		if a.Site.Thread.ID != b.Site.Thread.ID {
			return a.Site.Thread.ID < b.Site.Thread.ID
		}
		if a.Site.Ctx != b.Site.Ctx {
			return a.Site.Ctx < b.Site.Ctx
		}
		if a.Held.Stmt.ID() != b.Held.Stmt.ID() {
			return a.Held.Stmt.ID() < b.Held.Stmt.ID()
		}
		if a.Held.Thread.ID != b.Held.Thread.ID {
			return a.Held.Thread.ID < b.Held.Thread.ID
		}
		return a.Held.Ctx < b.Held.Ctx
	})
	return out
}

// Detect enumerates candidate deadlock cycles (deterministic order).
func (d *Detector) Detect() []*Report {
	if d.MaxCycle <= 0 {
		d.MaxCycle = 4
	}
	acq := d.edges()
	// Group edges by (from, to) lock pair.
	byPair := map[lockPair][]Acquisition{}
	succs := map[ir.ObjID][]ir.ObjID{}
	seenSucc := map[lockPair]bool{}
	for _, e := range acq {
		k := lockPair{from: e.From.ID, to: e.To.ID}
		byPair[k] = append(byPair[k], e)
		if !seenSucc[k] {
			seenSucc[k] = true
			succs[e.From.ID] = append(succs[e.From.ID], e.To.ID)
		}
	}
	for _, s := range succs {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}

	var reports []*Report
	reported := map[string]bool{}

	// DFS for simple cycles up to MaxCycle, canonicalized by smallest
	// starting lock ID.
	var path []ir.ObjID
	var dfs func(start, cur ir.ObjID)
	dfs = func(start, cur ir.ObjID) {
		if len(path) > d.MaxCycle {
			return
		}
		for _, next := range succs[cur] {
			if next == start && len(path) >= 2 {
				d.tryReport(start, path, byPair, reported, &reports)
				continue
			}
			if next <= start {
				continue // canonical start = minimum lock in cycle
			}
			inPath := false
			for _, p := range path {
				if p == next {
					inPath = true
				}
			}
			if inPath {
				continue
			}
			path = append(path, next)
			dfs(start, next)
			path = path[:len(path)-1]
		}
	}
	var starts []ir.ObjID
	for from := range succs {
		starts = append(starts, from)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, start := range starts {
		path = []ir.ObjID{start}
		dfs(start, start)
	}
	return reports
}

// tryReport validates one lock cycle: some combination of edge instances
// must be pairwise concurrent.
func (d *Detector) tryReport(start ir.ObjID, path []ir.ObjID,
	byPair map[lockPair][]Acquisition,
	reported map[string]bool, reports *[]*Report) {

	n := len(path)
	key := ""
	for _, id := range path {
		key += fmt.Sprintf("%d,", id)
	}
	if reported[key] {
		return
	}

	// Edge candidate lists around the cycle.
	edgeChoices := make([][]Acquisition, n)
	for i := 0; i < n; i++ {
		from := path[i]
		to := path[(i+1)%n]
		edgeChoices[i] = byPair[lockPair{from: from, to: to}]
		if len(edgeChoices[i]) == 0 {
			return
		}
	}

	// Search for a pairwise-concurrent assignment (bounded backtracking).
	chosen := make([]Acquisition, n)
	var pick func(i int) bool
	pick = func(i int) bool {
		if i == n {
			return true
		}
		for _, e := range edgeChoices[i] {
			ok := true
			for j := 0; j < i; j++ {
				if !d.concurrent(chosen[j], e) {
					ok = false
					break
				}
			}
			if ok {
				chosen[i] = e
				if pick(i + 1) {
					return true
				}
			}
		}
		return false
	}
	if !pick(0) {
		return
	}

	reported[key] = true
	cycle := make([]*ir.Object, n)
	for i, id := range path {
		cycle[i] = d.Model.Prog.Objects[id]
	}
	*reports = append(*reports, &Report{Cycle: cycle, Edges: append([]Acquisition(nil), chosen...)})
}

// concurrent reports whether the two acquisitions may execute in parallel.
func (d *Detector) concurrent(a, b Acquisition) bool {
	return d.MHP.MHP(a.Site.Thread, a.Site.Ctx, a.Site.Stmt,
		b.Site.Thread, b.Site.Ctx, b.Site.Stmt)
}
