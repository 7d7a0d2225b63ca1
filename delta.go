package fsam

// Incremental re-analysis. AnalyzeDeltaCtx re-analyzes an edited source
// against a completed base Analysis. The analysis is staged and whole-
// program: every phase's result is indexed by program-wide IDs, so reuse
// happens per program, never per function. The per-function content
// addresses (internal/facts) only decide the tier and name what changed:
//
//   - Tier "noop": the patch's program-level content address equals the
//     base's (whitespace, comments, reformatting). Every result of the
//     base analysis is shared under the patch's file name; zero phases
//     run.
//   - Tier "iso": some function keys changed but the rebuilt IR is
//     isomorphic to the base's (ir.Isomorphic) — every VarID/ObjID/StmtID
//     denotes the same entity, so the expensive ID-indexed results
//     (pre-analysis rows, def-use graph, sparse solve rows) are rebound
//     onto the fresh program and only the cheap glue (call graph, ICFG,
//     thread model, escape, locks, interleaving) is recomputed. This is
//     the tier a typical one-function edit (tweaked constants, reordered
//     arithmetic over the same pointers) lands in.
//   - Tier "semantic": the edit changed pointer-relevant structure. The
//     landed engine's full pipeline re-runs over the fresh program.
//
// Every tier is observably equal to a from-scratch analysis of the new
// source: points-to query answers, Table 1 counts and diagnostic
// fingerprints are identical (for "noop" adoptions, diagnostics carry the
// base run's line numbers — the edit only moved text).

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/facts"
	"repro/internal/frontend/parser"
	"repro/internal/ir"
	"repro/internal/irbuild"
	"repro/internal/solver"
)

// Delta tiers (DeltaReport.Tier).
const (
	// DeltaNoop shares every result of the base analysis (equal program keys).
	DeltaNoop = "noop"
	// DeltaIso rebinds the base's ID-indexed facts onto the re-built IR.
	DeltaIso = "iso"
	// DeltaSemantic re-runs the full pipeline.
	DeltaSemantic = "semantic"
)

// DeltaReport describes what an incremental re-analysis did.
type DeltaReport struct {
	// Tier is one of DeltaNoop, DeltaIso, DeltaSemantic.
	Tier string
	// ProgKey and BaseProgKey are the content addresses of the new and
	// base programs (the address fsamd accepts as "base").
	ProgKey     string
	BaseProgKey string
	// ChangedFuncs and RemovedFuncs are the functions whose content
	// address changed (or is new) and disappeared, sorted. AdoptedFuncs
	// counts the functions whose content address is unchanged.
	ChangedFuncs []string
	RemovedFuncs []string
	AdoptedFuncs int
	// PhasesRun lists the pipeline phases that actually executed, in run
	// order. Empty for the noop tier.
	PhasesRun []string
	// IsoNote explains why the iso tier was not taken (first structural
	// mismatch, or rebind-eligibility reason); empty when it was.
	IsoNote string
}

// AnalyzeDelta is AnalyzeDeltaCtx with a background context.
func AnalyzeDelta(base *Analysis, name, src string) (*Analysis, *DeltaReport, error) {
	return AnalyzeDeltaCtx(context.Background(), base, name, src)
}

// AnalyzeDeltaCtx re-analyzes src (an edit of the program base analyzed)
// under base's configuration, reusing base's results as far as the edit's
// tier allows. The returned Analysis answers every query as a from-scratch
// AnalyzeSourceCtx of src would; the report says which tier the edit
// landed in and which functions' content addresses it changed. Malformed
// source returns a positioned error, like AnalyzeSourceCtx.
func AnalyzeDeltaCtx(ctx context.Context, base *Analysis, name, src string) (*Analysis, *DeltaReport, error) {
	if base == nil {
		return nil, nil, errors.New("nil base analysis")
	}
	cfg := base.Config
	baseSnap, err := base.factsSnapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("base analysis cannot be delta-keyed: %w", err)
	}

	t0 := time.Now()
	file, err := parser.ParseChecked(name, src)
	if err != nil {
		return nil, nil, err
	}
	parseDur := time.Since(t0)
	next := facts.SnapshotFile(cfg.Canonical(), file)
	d := baseSnap.Diff(next)
	rep := &DeltaReport{
		ProgKey:      next.ProgKey,
		BaseProgKey:  baseSnap.ProgKey,
		ChangedFuncs: sortedNames(d.Changed),
		RemovedFuncs: sortedNames(d.Removed),
		AdoptedFuncs: len(d.Same),
	}

	if next.ProgKey == baseSnap.ProgKey {
		rep.Tier = DeltaNoop
		return base.adoptAs(name, src, next), rep, nil
	}

	t1 := time.Now()
	fresh, err := irbuild.BuildChecked(file)
	if err != nil {
		return nil, nil, err
	}
	compileDur := parseDur + time.Since(t1)

	var a *Analysis
	var phases []string
	if note := base.deltaIneligible(); note != "" {
		rep.IsoNote = note
	} else if ok, why := ir.Isomorphic(base.Prog, fresh); !ok {
		rep.IsoNote = why
	} else {
		bctx := engine.WithBudget(ctx, engine.Budget{MemBytes: cfg.MemBudgetBytes, MaxSteps: cfg.StepLimit})
		a, phases, err = base.deltaRebind(bctx, cfg, fresh)
		if err != nil {
			a = nil
			rep.IsoNote = "rebind failed: " + err.Error()
		} else {
			rep.Tier = DeltaIso
		}
	}
	if a == nil {
		rep.Tier = DeltaSemantic
		full, rerr := runEngine(ctx, cfg, solver.State{Prog: fresh})
		if full == nil || rerr != nil {
			return full, rep, rerr
		}
		a = full
		for _, p := range solver.Lookup(cfg.Engine).Phases(cfg) {
			phases = append(phases, p.Name)
		}
	}
	rep.PhasesRun = phases
	a.SourceName = name
	a.Suppress = diag.ParseSuppressions(src)
	a.source = src
	a.seedSnapshot(next)
	a.Stats.Phases = append([]PhaseTime{{Name: solver.PhaseCompile, Time: compileDur}}, a.Stats.Phases...)
	return a, rep, nil
}

// adoptAs is the noop tier: a new Analysis sharing every result of a
// (the same program, phase results, engine view and Stats; no phase runs)
// but answering under the patch's file name, which salts every diagnostic
// fingerprint. It keeps a's suppressions, because findings keep a's line
// numbers on this tier, and gets its own diagnostics memo. Built field by
// field: an Analysis holds sync.Once memos and must not be copied.
func (a *Analysis) adoptAs(name, src string, snap *facts.Snapshot) *Analysis {
	n := &Analysis{
		State:      a.State,
		Engine:     a.Engine,
		Precision:  a.Precision,
		Stats:      a.Stats,
		Config:     a.Config,
		view:       a.view,
		source:     src,
		SourceName: name,
		Suppress:   a.Suppress,
	}
	n.seedSnapshot(snap)
	return n
}

// deltaIneligible reports why base's facts cannot be structurally
// rebound (empty when they can).
func (a *Analysis) deltaIneligible() string {
	switch {
	case a.Prog == nil || a.Base == nil || a.Base.Pre == nil:
		return "base analysis holds no completed pre-analysis"
	case a.Stats.Degraded != "":
		return "base analysis is degraded: " + a.Stats.Degraded
	}
	switch a.Engine {
	case "fsam":
		if a.Graph == nil || a.Result == nil {
			return "base analysis holds no sparse result"
		}
	case "cfgfree":
		if a.CFGFree == nil {
			return "base analysis holds no cfgfree result"
		}
	case "andersen":
	default:
		return fmt.Sprintf("engine %q has no incremental rebind path", a.Engine)
	}
	return ""
}

// deltaRebind executes the iso tier: adopt every ID-indexed fact of base
// by rebinding it onto fresh, recompute only the glue phases (the cold
// list's up to the first rebound result, escape included, so Stats and
// the escape-aware checkers see a cold run's verdicts), and build a full
// Analysis. Any divergence (field-object replay, a glue phase failure, a
// panic in rebind code) is an error — the caller falls back to the
// semantic tier, so a rebind bug can cost time but never wrong results.
func (base *Analysis) deltaRebind(ctx context.Context, cfg Config, fresh *ir.Program) (a *Analysis, phases []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			a, err = nil, fmt.Errorf("rebind panicked: %v", r)
		}
	}()
	if err := fresh.ReplayFieldObjs(base.Prog); err != nil {
		return nil, nil, err
	}
	newPre := base.Base.Pre.Rebind(fresh)

	// The glue phases are the engine's cold list, with the pre-analysis
	// adopting newPre, up to the first phase whose result is rebound.
	var ps []solver.Phase
glue:
	for _, p := range solver.Lookup(base.Engine).Phases(cfg) {
		switch p.Name {
		case solver.PhasePre:
			p = solver.PreAnalysisFromPhase(newPre, cfg.CtxDepth)
		case solver.PhaseDefUse, solver.PhaseSparse, solver.PhaseCFGFree:
			break glue
		}
		ps = append(ps, p)
	}

	mgr, err := newManager(base.Engine, ps)
	if err != nil {
		return nil, nil, err
	}
	a = &Analysis{State: solver.State{Prog: fresh}, Engine: base.Engine, Config: cfg, Precision: base.Precision}
	rep, err := mgr.Run(ctx, &a.State)
	if err != nil {
		return nil, nil, err
	}
	switch base.Engine {
	case "fsam":
		a.Graph = base.Graph.Rebind(fresh, newPre, a.Base.Model)
		a.Result = base.Result.Rebind(fresh, a.Graph, a.Base.Model)
	case "cfgfree":
		a.CFGFree = base.CFGFree.Rebind(fresh)
	}
	a.fillStats(rep)
	a.view = solver.Lookup(base.Engine).Result(&a.State)
	if a.view == nil {
		return nil, nil, errors.New("rebound state yields no engine view")
	}
	for _, p := range ps {
		phases = append(phases, p.Name)
	}
	return a, phases, nil
}

// factsSnapshot computes (once) the per-function key table of this
// analysis' retained source.
func (a *Analysis) factsSnapshot() (*facts.Snapshot, error) {
	a.snapOnce.Do(func() {
		if a.source == "" {
			a.snapErr = errors.New("analysis retains no source text (analyze via AnalyzeSource to enable incremental runs)")
			return
		}
		f, err := parser.ParseChecked(a.SourceName, a.source)
		if err != nil {
			a.snapErr = err
			return
		}
		a.snap = facts.SnapshotFile(a.Config.Canonical(), f)
	})
	return a.snap, a.snapErr
}

// seedSnapshot pre-fills the memoized snapshot (the delta path already
// parsed the source, so re-deriving it would be pure waste).
func (a *Analysis) seedSnapshot(s *facts.Snapshot) {
	a.snapOnce.Do(func() { a.snap = s })
}

// ProgKey returns this analysis' program-level content address — the
// value fsamd accepts as the "base" of a patch request.
func (a *Analysis) ProgKey() (string, error) {
	s, err := a.factsSnapshot()
	if err != nil {
		return "", err
	}
	return s.ProgKey, nil
}

func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
