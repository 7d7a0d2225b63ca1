package fsam

// Incremental re-analysis. AnalyzeDeltaCtx re-analyzes an edited source
// against a completed base Analysis, adopting every per-function fact the
// edit provably did not change instead of recomputing it:
//
//   - Tier "noop": the patch's program-level content address equals the
//     base's (whitespace, comments, reformatting). The base analysis is
//     adopted wholesale; zero phases run.
//   - Tier "iso": some function keys changed but the rebuilt IR is
//     isomorphic to the base's (ir.Isomorphic) — every VarID/ObjID/StmtID
//     denotes the same entity, so the expensive ID-indexed facts
//     (pre-analysis rows, def-use graph, sparse solve rows) are rebound
//     onto the fresh program and only the cheap glue (call graph, ICFG,
//     thread model, interleaving, locks) is recomputed. This is the tier
//     a typical one-function edit (tweaked constants, reordered
//     arithmetic over the same pointers) lands in.
//   - Tier "semantic": the edit changed pointer-relevant structure. The
//     landed engine's full pipeline re-runs over the fresh program; the
//     fact store invalidates the changed functions' records and the
//     report names the functions whose interference facts were impacted
//     (the changed functions' transitive callers/callees intersected by
//     mod/ref).
//
// Every tier is observably equal to a from-scratch analysis of the new
// source: points-to query answers, Table 1 counts and diagnostic
// fingerprints are identical (for "noop" adoptions, diagnostics may carry
// the base run's line numbers — the edit only moved text, and
// fingerprints are line-independent by construction).

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
	"repro/internal/pipeline"
	"repro/internal/pts"
	"repro/internal/solver"
)

// DefaultFacts is the process-wide per-function fact store delta runs use
// when the base Analysis carries no store of its own. Every engine reads
// facts through one store; records are content-addressed (and salted by
// the configuration), so engines and configurations can share it without
// ever adopting each other's facts.
var DefaultFacts = facts.NewStore(0)

// Delta tiers (DeltaReport.Tier).
const (
	// DeltaNoop adopts the base analysis unchanged (equal program keys).
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
	// address changed or disappeared, sorted. AdoptedFuncs counts the
	// functions whose per-function facts were adopted unchanged.
	ChangedFuncs []string
	RemovedFuncs []string
	AdoptedFuncs int
	// ImpactedFuncs lists the functions whose interference-phase facts
	// had to be recomputed: the changed functions' transitive callers and
	// callees, widened to every function whose mod/ref sets intersect
	// theirs. Empty for the noop tier.
	ImpactedFuncs []string
	// PhasesRun lists the pipeline phases that actually executed, in DAG
	// order. Empty for the noop tier.
	PhasesRun []string
	// Facts is the fact-store counter delta of this run.
	Facts facts.Counters
	// IsoNote explains why the iso tier was not taken (first structural
	// mismatch, or rebind-eligibility reason); empty when it was.
	IsoNote string
}

// AnalyzeDelta is AnalyzeDeltaCtx with a background context.
func AnalyzeDelta(base *Analysis, name, src string) (*Analysis, *DeltaReport, error) {
	return AnalyzeDeltaCtx(context.Background(), base, name, src)
}

// AnalyzeDeltaCtx re-analyzes src (an edit of the program base analyzed)
// under base's configuration, reusing base's per-function facts wherever
// the edit did not invalidate them. The returned Analysis answers every
// query as a from-scratch AnalyzeSourceCtx of src would; the report says
// which tier the edit landed in and what was reused. Malformed source
// returns a positioned error, like AnalyzeSourceCtx.
func AnalyzeDeltaCtx(ctx context.Context, base *Analysis, name, src string) (*Analysis, *DeltaReport, error) {
	if base == nil {
		return nil, nil, errors.New("nil base analysis")
	}
	cfg := base.Config
	baseSnap, err := base.factsSnapshot()
	if err != nil {
		return nil, nil, fmt.Errorf("base analysis cannot be delta-keyed: %w", err)
	}
	store := base.factsStore()
	before := store.Counters()
	base.installFacts(baseSnap)

	t0 := time.Now()
	file, err := parser.ParseChecked(name, src)
	if err != nil {
		return nil, nil, err
	}
	parseDur := time.Since(t0)
	next := facts.SnapshotFile(cfg.Canonical(), file)
	for _, rec := range next.Funcs {
		store.Lookup(rec.Key)
	}
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
		rep.Facts = store.Counters().Sub(before)
		return base, rep, nil
	}
	rep.ImpactedFuncs = impactedFuncs(base, d.Changed, d.Removed)

	t1 := time.Now()
	fresh, err := irbuild.BuildChecked(file)
	if err != nil {
		return nil, nil, err
	}
	compileDur := parseDur + time.Since(t1)

	// The changed and removed functions' records are stale by content
	// address; drop them so the counters reflect exactly what this edit
	// cost. Unchanged functions keep their records — their
	// pre-interference facts stay valid even when their interference
	// facts recompute.
	for _, nm := range append(append([]string(nil), d.Changed...), d.Removed...) {
		if r, ok := baseSnap.ByName[nm]; ok {
			store.Invalidate(r.Key)
		}
	}

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
		st := pipeline.NewState()
		st.Put(solver.SlotProg, fresh)
		full, rerr := runEngine(ctx, cfg, "", "", false, st)
		if full == nil || rerr != nil {
			rep.Facts = store.Counters().Sub(before)
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
	a.FactsStore = base.FactsStore
	a.seedSnapshot(next)
	a.Stats.Phases = append([]PhaseTime{{Name: solver.PhaseCompile, Time: compileDur}}, a.Stats.Phases...)
	a.installFacts(next)
	rep.Facts = store.Counters().Sub(before)
	return a, rep, nil
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
// by rebinding it onto fresh, recompute only the glue phases, and
// assemble a full Analysis. Any divergence (field-object replay, a glue
// phase failure, a panic in rebind code) is an error — the caller falls
// back to the semantic tier, so a rebind bug can cost time but never
// wrong results.
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

	var ps []pipeline.Phase
	switch base.Engine {
	case "fsam":
		ps = []pipeline.Phase{solver.PreAnalysisFromPhase(newPre, cfg.CtxDepth),
			solver.ThreadModelPhase(), solver.InterleavePhase(cfg.NoInterleaving)}
		if !cfg.NoLock {
			ps = append(ps, solver.LocksPhase())
		}
	case "cfgfree", "andersen":
		ps = []pipeline.Phase{solver.PreAnalysisFromPhase(newPre, cfg.CtxDepth)}
	default:
		return nil, nil, fmt.Errorf("engine %q has no incremental rebind path", base.Engine)
	}

	st := pipeline.NewState()
	st.Put(solver.SlotProg, fresh)
	mgr, err := newManager(cfg, base.Engine, ps)
	if err != nil {
		return nil, nil, err
	}
	rep, err := mgr.Run(ctx, st)
	if err != nil {
		return nil, nil, err
	}
	newBase := pipeline.Get[*pipeline.Base](st, solver.SlotBase)
	switch base.Engine {
	case "fsam":
		ng := base.Graph.Rebind(fresh, newPre, newBase.Model)
		st.Put(solver.SlotVFG, ng)
		st.Put(solver.SlotResult, base.Result.Rebind(fresh, ng, newBase.Model))
	case "cfgfree":
		st.Put(solver.SlotCFGFree, base.CFGFree.Rebind(fresh))
	}
	a = assemble(st)
	a.Engine = base.Engine
	a.Config = cfg
	a.fillStats(rep)
	a.Precision = base.Precision
	a.view = solver.Lookup(base.Engine).Result(st)
	if a.view == nil {
		return nil, nil, errors.New("rebound state yields no engine view")
	}
	for _, p := range ps {
		phases = append(phases, p.Name)
	}
	return a, phases, nil
}

// impactedFuncs computes the functions whose interference facts the edit
// touches: the changed/removed functions' transitive callers and callees
// over the base call graph, widened — when the base carries mod/ref
// summaries — to every function whose mod/ref sets intersect that
// closure's. Sorted by name.
func impactedFuncs(base *Analysis, changed, removed []string) []string {
	if base.Prog == nil || base.Base == nil || base.Base.Pre == nil {
		return sortedNames(append(append([]string(nil), changed...), removed...))
	}
	pre := base.Base.Pre

	// Undirected call adjacency (callers and callees both depend on the
	// changed function's interference behavior).
	adj := map[*ir.Function][]*ir.Function{}
	link := func(site ir.Stmt, callee *ir.Function) {
		caller := ir.StmtFunc(site)
		if caller == nil || callee == nil {
			return
		}
		adj[caller] = append(adj[caller], callee)
		adj[callee] = append(adj[callee], caller)
	}
	for c, targets := range pre.CallTargets {
		for _, t := range targets {
			link(c, t)
		}
	}
	for f, routines := range pre.ForkTargets {
		for _, r := range routines {
			link(f, r)
		}
	}

	seed := map[*ir.Function]bool{}
	for _, nm := range changed {
		if f := base.Prog.FuncByName[nm]; f != nil {
			seed[f] = true
		}
	}
	for _, nm := range removed {
		if f := base.Prog.FuncByName[nm]; f != nil {
			seed[f] = true
		}
	}
	closure := map[*ir.Function]bool{}
	var stack []*ir.Function
	for f := range seed {
		closure[f] = true
		stack = append(stack, f)
	}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, g := range adj[f] {
			if !closure[g] {
				closure[g] = true
				stack = append(stack, g)
			}
		}
	}

	impacted := map[string]bool{}
	for _, nm := range append(append([]string(nil), changed...), removed...) {
		impacted[nm] = true
	}
	for f := range closure {
		impacted[f.Name] = true
	}
	if base.Graph != nil && base.Graph.MR != nil {
		mr := base.Graph.MR
		effect := &pts.Set{}
		for f := range closure {
			effect.UnionWith(mr.Mod(f))
			effect.UnionWith(mr.Ref(f))
		}
		for _, f := range base.Prog.Funcs {
			if impacted[f.Name] {
				continue
			}
			if mr.Mod(f).IntersectsWith(effect) || mr.Ref(f).IntersectsWith(effect) {
				impacted[f.Name] = true
			}
		}
	}
	var out []string
	for nm := range impacted {
		out = append(out, nm)
	}
	sort.Strings(out)
	return out
}

// factsStore returns the store this analysis' delta runs use.
func (a *Analysis) factsStore() *facts.Store {
	if a.FactsStore != nil {
		return a.FactsStore
	}
	return DefaultFacts
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

// installFacts installs one record per function of snap into the store.
// Install refreshes existing records without counting lookups, so
// re-installing a base's facts before a delta is idempotent.
func (a *Analysis) installFacts(snap *facts.Snapshot) {
	store := a.factsStore()
	for _, rec := range snap.Funcs {
		store.Install(rec)
	}
}

func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
