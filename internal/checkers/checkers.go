// Package checkers is the go/vet-style registry of the diagnostic suite:
// each Checker adapts one bug-finding client of the FSAM results (the
// existing race/deadlock/leak detectors plus the use-after-free,
// double-free and pthread-misuse checkers defined here) to the unified
// diag.Diagnostic model.
//
// The registry consumes a Facts bundle rather than the fsam.Analysis facade
// so the dependency points one way: the facade builds Facts from its
// completed phases and calls Run. Checkers are tier-aware — a checker whose
// required analyses are missing (degraded precision, ablation switches)
// reports a skip reason instead of wrong results.
package checkers

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/andersen"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/pts"
	"repro/internal/race"
	"repro/internal/threads"
)

// Facts bundles the analysis results checkers consume. Fields may be nil
// when the corresponding phase did not run (ablation Config switches) or
// was lost to precision degradation; each checker declares what it needs.
type Facts struct {
	// File is the source file name diagnostics are attributed to.
	File string
	Prog *ir.Program
	// Model is the static thread model (nil below the thread-model phase).
	Model *threads.Model
	// MHP is the interleaving analysis (nil under NoInterleaving or when
	// degraded).
	MHP *mhp.Result
	// Locks is the lock-span analysis (nil under NoLock or when degraded).
	Locks *locks.Result
	// Points is the flow-sensitive points-to result; nil at the
	// Andersen-only tier.
	Points *core.Result
	// Pre is the flow-insensitive pre-analysis, the fallback for points-to
	// queries. Always present once a program compiled.
	Pre *andersen.Result
	// Reachable filters to functions reachable from main (nil: no filter).
	Reachable map[*ir.Function]bool
	// FullPrecision is true when the analysis landed on the full sparse
	// flow-sensitive tier; PrecisionNote carries the tier and degradation
	// reason otherwise, for skip messages.
	FullPrecision bool
	PrecisionNote string
	// MemModel is the memory consistency model the analysis ran under
	// ("sc", "tso", "pso"; "" reads as "sc"). Memory-model-aware checkers
	// (racypub) key off it: a pattern that is only unsafe under relaxed
	// models reports nothing under SC.
	MemModel string
	// Escape is the thread-escape sharedness classification. The
	// escape-aware checkers (localonlylock, unsyncshared, escapeleak) need
	// it; nil skips them.
	Escape *escape.Result
}

// RaceDetector builds the data-race client over f, pruning with the
// escape oracle.
func (f *Facts) RaceDetector() *race.Detector {
	return &race.Detector{Model: f.Model, MHP: f.MHP, Locks: f.Locks, Points: f.Points, Escape: f.Escape}
}

// pointsTo answers a top-level-variable points-to query from the most
// precise result available (top-level variables are SSA, so the
// flow-sensitive answer is flow-invariant). The sparse result can be empty
// for dead code; fall back to the pre-analysis, mirroring race.Detector.
func (f *Facts) pointsTo(v *ir.Var) *pts.Set {
	if f.Points != nil {
		if s := f.Points.PointsToVar(v); !s.IsEmpty() {
			return s
		}
	}
	return f.Pre.PointsToVar(v)
}

// Checker is one registered diagnostic pass.
type Checker struct {
	// ID is the stable registry key ("race", "uaf", ...) used in -checkers
	// lists, fsam:ignore filters and SARIF ruleIds.
	ID string
	// Name is the SARIF rule name (CamelCase).
	Name string
	// Doc is a one-line description.
	Doc string
	// Severity classifies every finding of this checker.
	Severity diag.Severity

	// available returns "" when the checker can run over f, else the
	// human-readable skip reason.
	available func(f *Facts) string
	// run produces the findings. Severity and File are stamped by Run.
	run func(f *Facts) []diag.Diagnostic
}

// Rule returns the checker's SARIF rule metadata.
func (c *Checker) Rule() diag.Rule {
	return diag.Rule{ID: c.ID, Name: c.Name, Doc: c.Doc}
}

// all is the registry, in canonical order. Order matters only for listings
// (rules metadata, -checkers help); findings are sorted positionally.
var all = []*Checker{
	raceChecker,
	deadlockChecker,
	leakChecker,
	uafChecker,
	doubleFreeChecker,
	pthreadChecker,
	racypubChecker,
	localOnlyLockChecker,
	unsyncSharedChecker,
	escapeLeakChecker,
}

// All returns the registered checkers in canonical order.
func All() []*Checker { return all }

// IDs returns the registered checker IDs in canonical order.
func IDs() []string {
	out := make([]string, len(all))
	for i, c := range all {
		out[i] = c.ID
	}
	return out
}

// ByID resolves a checker by registry ID (nil if unknown).
func ByID(id string) *Checker {
	for _, c := range all {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// Rules returns SARIF rule metadata for the given checker IDs (all
// registered checkers when ids is empty).
func Rules(ids ...string) []diag.Rule {
	var out []diag.Rule
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if c := ByID(id); c != nil {
			out = append(out, c.Rule())
		}
	}
	return out
}

// ErrUnknownChecker is wrapped by Run for unrecognized checker IDs.
var ErrUnknownChecker = errors.New("unknown checker")

// Result is the outcome of one Run: finalized diagnostics (canonically
// sorted, fingerprints assigned) plus the skip reason of every requested
// checker that could not run over these Facts.
type Result struct {
	Diags   []diag.Diagnostic
	Skipped map[string]string
}

// Run executes the requested checkers (all of them when ids is empty) over
// f and returns the finalized findings. Unknown IDs error with
// ErrUnknownChecker; unavailable checkers are recorded in Skipped rather
// than failing the run.
func Run(f *Facts, ids ...string) (*Result, error) {
	var selected []*Checker
	if len(ids) == 0 {
		selected = all
	} else {
		seen := map[string]bool{}
		for _, id := range ids {
			c := ByID(id)
			if c == nil {
				return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownChecker, id, IDs())
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			selected = append(selected, c)
		}
	}

	res := &Result{Skipped: map[string]string{}}
	for _, c := range selected {
		if reason := c.available(f); reason != "" {
			res.Skipped[c.ID] = reason
			continue
		}
		for _, d := range c.run(f) {
			d.Checker = c.ID
			d.Severity = c.Severity
			d.File = f.File
			res.Diags = append(res.Diags, d)
		}
	}
	diag.Finalize(res.Diags)
	return res, nil
}

// sortedFuncs returns a thread's executed (function, context) pairs in a
// deterministic order; Model.Funcs is a map, and iterating it directly
// would let witness selection drift between runs.
func sortedFuncs(m *threads.Model, t *threads.Thread) []threads.FuncCtx {
	fcs := make([]threads.FuncCtx, 0, len(m.Funcs(t)))
	for fc := range m.Funcs(t) {
		fcs = append(fcs, fc)
	}
	sort.Slice(fcs, func(i, j int) bool {
		if fcs[i].Func.Name != fcs[j].Func.Name {
			return fcs[i].Func.Name < fcs[j].Func.Name
		}
		return fcs[i].Ctx < fcs[j].Ctx
	})
	return fcs
}
