package checkers

// Adapters for the three pre-existing detection clients. Messages avoid
// embedding line numbers (positions live in Line/Related) so content
// fingerprints survive renumbering-only edits.

import (
	"fmt"
	"strings"

	"repro/internal/deadlock"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/leak"
)

func accessKind(s ir.Stmt) string {
	if _, ok := s.(*ir.Store); ok {
		return "write"
	}
	return "read"
}

var raceChecker = &Checker{
	ID:       "race",
	Name:     "DataRace",
	Doc:      "concurrent accesses to a common object, at least one a write, with no common lock",
	Severity: diag.SevWarning,
	available: func(f *Facts) string {
		if !f.FullPrecision {
			return "requires a full-precision result (" + f.PrecisionNote + ")"
		}
		if f.MHP == nil {
			return "requires the interleaving analysis (disable NoInterleaving)"
		}
		return ""
	},
	run: func(f *Facts) []diag.Diagnostic {
		var out []diag.Diagnostic
		for _, r := range f.RaceDetector().Detect() {
			out = append(out, diag.Diagnostic{
				Line: ir.LineOf(r.First),
				Message: fmt.Sprintf("data race on %s: %s by %s and %s by %s without a common lock",
					r.Obj, accessKind(r.First), r.Threads[0], accessKind(r.Second), r.Threads[1]),
				Object:  r.Obj.Name,
				Threads: []string{r.Threads[0].String(), r.Threads[1].String()},
				Related: []diag.Related{{
					Line:    ir.LineOf(r.Second),
					Message: fmt.Sprintf("conflicting %s by %s", accessKind(r.Second), r.Threads[1]),
				}},
			})
		}
		return out
	},
}

var deadlockChecker = &Checker{
	ID:       "deadlock",
	Name:     "LockOrderCycle",
	Doc:      "a cycle of lock acquisitions whose edges can run concurrently (Goodlock)",
	Severity: diag.SevWarning,
	available: func(f *Facts) string {
		if !f.FullPrecision {
			return "requires a full-precision result (" + f.PrecisionNote + ")"
		}
		if f.MHP == nil {
			return "requires the interleaving analysis (disable NoInterleaving)"
		}
		if f.Locks == nil {
			return "requires the lock analysis (disable NoLock)"
		}
		return ""
	},
	run: func(f *Facts) []diag.Diagnostic {
		d := &deadlock.Detector{Model: f.Model, MHP: f.MHP, Locks: f.Locks}
		var out []diag.Diagnostic
		for _, r := range d.Detect() {
			names := make([]string, 0, len(r.Cycle)+1)
			for _, o := range r.Cycle {
				names = append(names, o.Name)
			}
			names = append(names, r.Cycle[0].Name)
			var related []diag.Related
			for i, e := range r.Edges {
				related = append(related, diag.Related{
					Line: ir.LineOf(e.Site.Stmt),
					Message: fmt.Sprintf("%s acquires %s while holding %s",
						e.Site.Thread, r.Cycle[(i+1)%len(r.Cycle)].Name, r.Cycle[i].Name),
				})
			}
			threadNames := make([]string, 0, len(r.Edges))
			seen := map[string]bool{}
			for _, e := range r.Edges {
				n := e.Site.Thread.String()
				if !seen[n] {
					seen[n] = true
					threadNames = append(threadNames, n)
				}
			}
			out = append(out, diag.Diagnostic{
				Line:    ir.LineOf(r.Edges[0].Site.Stmt),
				Message: "potential deadlock: lock-order cycle " + strings.Join(names, " -> "),
				Object:  r.Cycle[0].Name,
				Threads: threadNames,
				Related: related,
			})
		}
		return out
	},
}

var leakChecker = &Checker{
	ID:       "leak",
	Name:     "MemoryLeak",
	Doc:      "a heap allocation neither must-freed nor reachable from globals at exit",
	Severity: diag.SevWarning,
	available: func(f *Facts) string {
		if f.Points == nil {
			return "requires a flow-sensitive result (" + f.PrecisionNote + ")"
		}
		return ""
	},
	run: func(f *Facts) []diag.Diagnostic {
		d := &leak.Detector{Prog: f.Prog, Points: f.Points, Reachable: f.Reachable}
		var out []diag.Diagnostic
		for _, r := range d.Detect() {
			out = append(out, diag.Diagnostic{
				Line:    ir.LineOf(r.Alloc),
				Message: fmt.Sprintf("%s may leak: never freed and unreachable from globals at exit", r.Obj),
				Object:  r.Obj.Name,
			})
		}
		return out
	},
}
