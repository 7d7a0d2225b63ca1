// Package fsam is the public API of this repository: a reproduction of
// FSAM, the sparse flow-sensitive pointer analysis for multithreaded C
// programs of Sui, Di and Xue (CGO 2016), together with the other
// analysis engines it is compared against — the NonSparse baseline (an
// RR-style iterative data-flow analysis), the thread-modular engine, the
// CFG-free flow-sensitive analysis (arXiv:2508.01974), and the Andersen
// pre-analysis exposed as an engine of its own.
//
// Programs are written in MiniC, a C subset with Pthreads-like primitives
// (spawn/join/lock/unlock); see the examples directory for the dialect. A
// typical use:
//
//	res, err := fsam.AnalyzeSource("prog.mc", src, fsam.Config{})
//	if err != nil { ... }
//	pts, _ := res.PointsToGlobal("c")   // e.g. ["y", "z"]
//
// Config.Engine selects the analysis backend ("fsam" by default; see
// Engines for the engine table). The Config ablation switches correspond to
// the paper's Figure 12 configurations (No-Interleaving, No-Value-Flow,
// No-Lock).
package fsam

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cfgfree"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/engine"
	"repro/internal/escape"
	"repro/internal/facts"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/nonsparse"
	"repro/internal/pcg"
	"repro/internal/pipeline"
	"repro/internal/pts"
	"repro/internal/solver"
	"repro/internal/tmod"
	"repro/internal/vfg"
)

// Config selects the analysis engine, its variants, and resource budgets.
// It is an alias of the solver package's Config, which is where the
// engine table keys off it and where its option table lives
// (RegisterFlags, SetOption, Validate, Normalize, Canonical).
type Config = solver.Config

// Precision labels the tier of the result an Analysis carries, in
// ascending precision (see the solver package for the tier semantics).
type Precision = solver.Precision

// The precision tiers, re-exported for the public API.
const (
	PrecisionNone            = solver.PrecisionNone
	PrecisionAndersenOnly    = solver.PrecisionAndersenOnly
	PrecisionCFGFreeFS       = solver.PrecisionCFGFreeFS
	PrecisionThreadModularFS = solver.PrecisionThreadModularFS
	PrecisionSparseFS        = solver.PrecisionSparseFS
)

// DefaultMemModel is the memory model an empty Config.MemModel selects
// (sequential consistency).
const DefaultMemModel = solver.DefaultMemModel

// MemModels lists the supported memory models, most to least constrained
// (sc, tso, pso). Only the thread-modular engine's interference gate
// consumes the model today; it participates in every engine's canonical
// configuration regardless.
func MemModels() []string { return solver.MemModels() }

// EscapePruneOn is the Config.EscapePrune value an empty string selects:
// the thread-escape pruning oracle is consulted by every
// interference-bearing engine.
const EscapePruneOn = solver.EscapePruneOn

// EscapePruneOff disables the thread-escape pruning oracle — the
// differential escape hatch; results are identical either way.
const EscapePruneOff = solver.EscapePruneOff

// ParsePrecision maps a Precision.String() rendering back onto the tier.
func ParsePrecision(s string) (Precision, bool) { return solver.ParsePrecision(s) }

// Engines lists the analysis backends in table order: the ladder's rungs,
// most precise first, then the off-ladder nonsparse baseline.
func Engines() []string { return solver.Names() }

// LadderEngines lists the degradation ladder's rungs, most precise first
// (the on-ladder subset of Engines).
func LadderEngines() []string {
	var out []string
	for _, s := range solver.Ladder() {
		out = append(out, s.Name())
	}
	return out
}

// LadderTiers lists the precision tiers of the ladder's rungs, most
// precise first, aligned index-for-index with LadderEngines.
func LadderTiers() []Precision {
	var out []Precision
	for _, s := range solver.Ladder() {
		out = append(out, s.Tier())
	}
	return out
}

// PhaseTime is one completed pipeline phase: its stable name (the
// solver.Phase* names), wall time, and the footprint of its outputs. A
// dotted name ("tmod.round1", "tmod.thread0") is a sub-phase measurement
// whose time is already contained in its parent phase.
type PhaseTime = pipeline.Entry

// Stats summarizes an analysis run.
type Stats struct {
	// Phases lists every phase that completed, in completion order. A
	// degraded run lists the failed attempt's phases followed by the
	// landing rung's, so a phase the fallback re-ran appears twice.
	Phases []PhaseTime
	// Bytes is the resident footprint of the analysis' data structures
	// (points-to sets, def-use graph, interference facts). Points-to
	// storage is interned, so each distinct set is counted once.
	Bytes uint64
	// UniqueSets is the number of distinct interned points-to sets the
	// final results reference; SetRefs is the number of slots referencing
	// them. DedupRatio is the byte ratio a private-copy representation
	// would have cost over the interned one (> 1 means sharing won).
	UniqueSets int
	SetRefs    int
	DedupRatio float64
	// PrePops and SolvePops count priority-worklist pops in the
	// pre-analysis and the main engine solver.
	PrePops   int
	SolvePops int
	// Threads is the number of abstract threads (including main).
	Threads int
	// DefUseEdges counts def-use edges (ObliviousEdges + ThreadEdges).
	// ThreadEdges counts the [THREAD-VF] store-access edges the paper
	// defines; the graph stores them as StoredThreadEdges edges through
	// ThreadHubs per-object hub nodes.
	DefUseEdges       int
	ObliviousEdges    int
	ThreadEdges       int
	StoredThreadEdges int
	ThreadHubs        int
	LockSpans         int
	Iterations        int
	Stmts             int
	// InterferenceRounds counts the thread-modular engine's interference
	// rounds to fixpoint (0 for other engines).
	InterferenceRounds int
	// EscapeLocal, EscapeHandedOff and EscapeShared count the objects the
	// thread-escape analysis classified per sharedness class (all zero for
	// engines that never build a thread model). EscapePrunedEdges counts
	// the interference work units the oracle skipped: fsam's [THREAD-VF]
	// candidate objects, tmod's interference publications, and a degraded
	// cfgfree rung's reach admissions.
	EscapeLocal       int
	EscapeHandedOff   int
	EscapeShared      int
	EscapePrunedEdges int
	// Degraded records why the result is below the requested engine's tier
	// (empty when the requested engine completed): the failing phase and
	// its panic, deadline, or budget reason, plus any fallback rung that
	// also failed.
	Degraded string
}

// Total sums the top-level phases' wall time: the time actually spent,
// sub-phases excluded (their time is contained in their parent's).
func (s Stats) Total() time.Duration {
	var total time.Duration
	for _, p := range s.Phases {
		if !p.Subphase() {
			total += p.Time
		}
	}
	return total
}

// Phase sums the wall time of every entry named phase (0 if it never ran).
func (s Stats) Phase(phase string) time.Duration {
	var total time.Duration
	for _, p := range s.Phases {
		if p.Name == phase {
			total += p.Time
		}
	}
	return total
}

// Analysis is a completed analysis run. Engine names the backend that
// produced the result — after degradation, the ladder rung that landed —
// and Precision its tier. Below the requested tier, engine-specific fields
// (Result, NS, CFGFree) belong to whichever rung completed; queries always
// answer from the landed engine's view, falling back to the pre-analysis.
type Analysis struct {
	Prog      *ir.Program
	Base      *pipeline.Base
	MHP       *mhp.Result       // nil unless an fsam-engine run with interleaving
	PCG       *pcg.Result       // non-nil under NoInterleaving
	Locks     *locks.Result     // nil under NoLock
	Graph     *vfg.Graph        // def-use graph (sparse engines)
	Result    *core.Result      // sparse flow-sensitive result
	NS        *nonsparse.Result // NONSPARSE engine result
	CFGFree   *cfgfree.Result   // CFG-free engine result
	Tmod      *tmod.Result      // thread-modular engine result
	Escape    *escape.Result    // thread-escape classification (nil without a thread model)
	Engine    string
	Precision Precision
	Stats     Stats

	// Config is the normalized configuration the run used. AnalyzeDeltaCtx
	// reuses it for re-analysis, and it salts the content addresses so a
	// result computed under one engine or ablation is never adopted by
	// another.
	Config Config

	// view is the landed engine's uniform points-to query surface.
	view solver.PTSView

	// source is the analyzed MiniC text, retained by AnalyzeSource so
	// delta runs can key the base's functions; snap memoizes the
	// per-function snapshot derived from it.
	source   string
	snapOnce sync.Once
	snap     *facts.Snapshot
	snapErr  error

	// SourceName is the file name diagnostics are attributed to (set by
	// AnalyzeSource; empty for pre-built programs, where Diagnostics falls
	// back to "program").
	SourceName string
	// Suppress carries the source's inline fsam:ignore comments (nil when
	// the source had none, or for pre-built programs).
	Suppress *diag.Suppressions

	// diagsOnce memoizes the checker suite: a completed Analysis is an
	// immutable value served to many concurrent readers (the fsamd service
	// keeps one per cache entry), so the suite runs once and Diagnostics
	// filters the shared result afterwards.
	diagsOnce sync.Once
	diags     *checkers.Result
	diagsErr  error

	// escOnce memoizes EscapeResult: the slot value when the engine's
	// phases computed one, else a lazy classification for engines
	// (nonsparse) that have a thread model but no escape phase.
	escOnce sync.Once
	escLazy *escape.Result
}

// AnalyzeSource parses, compiles and analyzes MiniC source.
func AnalyzeSource(name, src string, cfg Config) (*Analysis, error) {
	return AnalyzeSourceCtx(context.Background(), name, src, cfg)
}

// AnalyzeSourceCtx is AnalyzeSource under a context: the compile phase
// heads the phase list (so compile time is measured directly, not derived
// by subtraction) and the whole run honors ctx's deadline. On
// cancellation it returns the partially-populated Analysis alongside a
// *pipeline.PhaseError wrapping ctx.Err().
func AnalyzeSourceCtx(ctx context.Context, name, src string, cfg Config) (*Analysis, error) {
	a, err := runEngine(ctx, cfg, name, src, true, pipeline.NewState())
	var pe *pipeline.PhaseError
	if errors.As(err, &pe) && pe.Phase == solver.PhaseCompile {
		return nil, pe.Err // a source error, not an analysis failure
	}
	if a != nil {
		a.SourceName = name
		a.Suppress = diag.ParseSuppressions(src)
		a.source = src
	}
	return a, err
}

// AnalyzeProgram runs the configured engine over an already-built program.
// It never panics: a phase failure degrades the result down the ladder,
// with the tier in Analysis.Precision and the reason in Stats.Degraded.
func AnalyzeProgram(prog *ir.Program, cfg Config) *Analysis {
	a, _ := AnalyzeProgramCtx(context.Background(), prog, cfg)
	return a
}

// AnalyzeProgramCtx runs the configured engine over an already-built
// program under a context. The pass manager runs the engine's phase list
// in order and every fixpoint loop polls ctx, so an expired deadline
// surfaces promptly as a *pipeline.PhaseError; the returned Analysis then
// holds the phases that did complete, with their times and bytes in Stats.
func AnalyzeProgramCtx(ctx context.Context, prog *ir.Program, cfg Config) (*Analysis, error) {
	st := pipeline.NewState()
	st.Put(solver.SlotProg, prog)
	return runEngine(ctx, cfg, "", "", false, st)
}

// runEngine resolves cfg.Engine against the engine table, runs the
// engine's phase list, assembles the facade view from the final State and
// the manager's Report, and — when a post-pre-analysis phase fails by
// panic, deadline, or budget — walks the degradation ladder (sparse FS →
// thread-modular → cfgfree → Andersen-only, solver.Ladder) so the caller
// always receives the best completed tier, explicitly labeled.
func runEngine(ctx context.Context, cfg Config, name, src string, withCompile bool, st *pipeline.State) (*Analysis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Normalize()
	eng := solver.Lookup(cfg.Engine)
	ctx = engine.WithBudget(ctx, engine.Budget{MemBytes: cfg.MemBudgetBytes, MaxSteps: cfg.StepLimit})
	phases := eng.Phases(cfg)
	if withCompile {
		phases = append([]pipeline.Phase{solver.CompilePhase(name, src)}, phases...)
	}
	mgr, err := newManager(eng.Name(), phases)
	if err != nil {
		return nil, err
	}
	rep, runErr := mgr.Run(ctx, st)
	a := assemble(st)
	a.Engine = eng.Name()
	a.Config = cfg
	a.fillStats(rep)
	if runErr == nil {
		a.Precision = eng.Tier()
		a.view = eng.Result(st)
		return a, nil
	}
	if cfg.NoDegrade {
		return a, runErr
	}
	return a.degrade(ctx, cfg, eng, st, runErr)
}

// assemble builds the facade view over the State's completed slots.
func assemble(st *pipeline.State) *Analysis {
	return &Analysis{
		Prog:    pipeline.Get[*ir.Program](st, solver.SlotProg),
		Base:    pipeline.Get[*pipeline.Base](st, solver.SlotBase),
		MHP:     pipeline.Get[*mhp.Result](st, solver.SlotMHP),
		PCG:     pipeline.Get[*pcg.Result](st, solver.SlotPCG),
		Locks:   pipeline.Get[*locks.Result](st, solver.SlotLocks),
		Graph:   pipeline.Get[*vfg.Graph](st, solver.SlotVFG),
		Result:  pipeline.Get[*core.Result](st, solver.SlotResult),
		NS:      pipeline.Get[*nonsparse.Result](st, solver.SlotNSResult),
		CFGFree: pipeline.Get[*cfgfree.Result](st, solver.SlotCFGFree),
		Tmod:    pipeline.Get[*tmod.Result](st, solver.SlotTmod),
		Escape:  pipeline.Get[*escape.Result](st, solver.SlotEscape),
	}
}

// degrade walks the ladder after runErr stopped the requested
// engine's pipeline. The contract: a compilable program whose pre-analysis
// completed always comes back usable — each rung strictly below the failed
// engine's tier is attempted in descending precision order (skipping
// phase-running rungs once the context is dead), and the Andersen rung
// always lands because its only phase, the pre-analysis, has already
// completed. The original failure is preserved in Stats.Degraded; the
// returned error is nil whenever a rung was reached.
func (a *Analysis) degrade(ctx context.Context, cfg Config, failed solver.Solver, st *pipeline.State, runErr error) (*Analysis, error) {
	var pe *pipeline.PhaseError
	if !errors.As(runErr, &pe) {
		// Not a phase failure (malformed phase list, missing seed): a
		// programming error, not a runtime condition — report it.
		a.Precision = PrecisionNone
		return a, runErr
	}
	if a.Base == nil || pe.Phase == solver.PhaseCompile || pe.Phase == solver.PhasePre {
		// Below the ladder: nothing sound completed to fall back to.
		a.Precision = PrecisionNone
		return a, runErr
	}
	reason := degradeReason(pe)
	lastErr := runErr

	for _, rung := range solver.Ladder() {
		if rung.Tier() >= failed.Tier() {
			continue
		}
		phases := prunePhases(rung.Phases(cfg), st)
		if len(phases) == 0 {
			// Everything this rung needs already completed (the Andersen
			// rung: its pre-analysis ran before anything could fail).
			if v := rung.Result(st); v != nil {
				a.adoptRung(rung, v, st, nil)
				a.Stats.Degraded = reason
				return a, nil
			}
			continue
		}
		// Rungs that must run phases are only worth attempting while the
		// context is alive (an expired deadline would cancel them on the
		// first poll).
		if ctx.Err() != nil {
			continue
		}
		// Drop the failed tier's outputs first — and garbage-collect after
		// a memory trip — so the rerun starts with budget headroom. Then
		// re-prune: a stale result slot (a def-use graph the failed sparse
		// solve left behind) must be rebuilt, not reused.
		a.clearResults(st)
		phases = prunePhases(rung.Phases(cfg), st)
		if pipeline.ErrOverBudget(lastErr) {
			runtime.GC()
		}
		mgr, err := newManager(rung.Name(), phases)
		if err != nil {
			reason += fmt.Sprintf("; %s fallback: %v", rung.Name(), err)
			continue
		}
		rep2, err2 := mgr.Run(ctx, st)
		if err2 == nil {
			a.adoptRung(rung, rung.Result(st), st, rep2)
			a.Stats.Degraded = reason
			return a, nil
		}
		lastErr = err2
		reason += fmt.Sprintf("; %s fallback: %v", rung.Name(), err2)
	}

	// Unreachable while the Andersen rung is on the ladder (its zero-phase
	// branch above always lands once Base exists); kept as a safety net.
	a.Precision = PrecisionNone
	a.Stats.Degraded = reason
	return a, runErr
}

// clearResults drops every engine-result slot from the State and the
// facade so a fallback rung neither sees a failed tier's partial outputs
// nor competes with them for a memory budget.
func (a *Analysis) clearResults(st *pipeline.State) {
	for _, slot := range solver.ResultSlots {
		st.Delete(slot)
	}
	a.Graph, a.Result, a.NS, a.CFGFree, a.Tmod, a.view = nil, nil, nil, nil, nil, nil
}

// adoptRung rebinds the facade to a ladder rung's completed result: the
// engine label, tier, view, the rung's slots, and (when the rung ran
// phases) its report appended to Stats.
func (a *Analysis) adoptRung(rung solver.Solver, v solver.PTSView, st *pipeline.State, rep *pipeline.Report) {
	a.Graph = pipeline.Get[*vfg.Graph](st, solver.SlotVFG)
	a.Result = pipeline.Get[*core.Result](st, solver.SlotResult)
	a.NS = pipeline.Get[*nonsparse.Result](st, solver.SlotNSResult)
	a.CFGFree = pipeline.Get[*cfgfree.Result](st, solver.SlotCFGFree)
	a.Tmod = pipeline.Get[*tmod.Result](st, solver.SlotTmod)
	a.Escape = pipeline.Get[*escape.Result](st, solver.SlotEscape)
	a.Engine = rung.Name()
	a.Precision = rung.Tier()
	a.view = v
	if rep != nil {
		a.Stats.Phases = append(a.Stats.Phases, rep.Entries()...)
		a.Stats.Bytes += rep.TotalBytes()
	}
	a.fillGraphStats()
	a.fillResultStats()
}

// degradeReason renders a phase failure for Stats.Degraded.
func degradeReason(pe *pipeline.PhaseError) string {
	switch {
	case pe.Panic:
		return fmt.Sprintf("phase %s panicked: %v", pe.Phase, pe.Err)
	case pipeline.ErrOverBudget(pe):
		return fmt.Sprintf("phase %s over budget: %v", pe.Phase, pe.Err)
	case pipeline.ErrCancelled(pe):
		return fmt.Sprintf("phase %s out of time: %v", pe.Phase, pe.Err)
	default:
		return fmt.Sprintf("phase %s failed: %v", pe.Phase, pe.Err)
	}
}

// fillStats maps the manager's per-phase Report onto the facade Stats and
// derives the result-shape counters. Nil guards keep it usable for the
// partial Analysis returned on cancellation.
func (a *Analysis) fillStats(rep *pipeline.Report) {
	a.Stats.Phases = rep.Entries()
	a.Stats.Bytes = rep.TotalBytes()
	if a.Prog != nil {
		a.Stats.Stmts = a.Prog.NumStmts()
	}
	if a.Base != nil {
		a.Stats.PrePops = a.Base.Pre.Pops
		if a.Base.Model != nil {
			a.Stats.Threads = len(a.Base.Model.Threads)
		}
	}
	if a.Locks != nil {
		a.Stats.LockSpans = a.Locks.NumSpans()
	}
	a.fillGraphStats()
	a.fillResultStats()
}

// fillGraphStats copies the def-use graph's edge counters.
func (a *Analysis) fillGraphStats() {
	if g := a.Graph; g != nil {
		a.Stats.ObliviousEdges = g.ObliviousEdges
		a.Stats.ThreadEdges = g.ThreadEdges
		a.Stats.DefUseEdges = g.ObliviousEdges + g.ThreadEdges
		a.Stats.StoredThreadEdges = g.StoredThreadEdges
		a.Stats.ThreadHubs = g.ThreadHubs
	}
}

// fillEscapeStats derives the escape classification counters and the
// pruned-work tally from whichever prune sites ran.
func (a *Analysis) fillEscapeStats() {
	if a.Escape != nil {
		a.Stats.EscapeLocal = a.Escape.NumLocal
		a.Stats.EscapeHandedOff = a.Escape.NumHandedOff
		a.Stats.EscapeShared = a.Escape.NumShared
	}
	pruned := 0
	if a.Graph != nil {
		pruned += a.Graph.FilteredByEscape
	}
	if a.Tmod != nil {
		pruned += a.Tmod.PrunedPubs
	}
	if a.CFGFree != nil {
		pruned += a.CFGFree.PrunedPairs
	}
	a.Stats.EscapePrunedEdges = pruned
}

// fillResultStats derives the result-shape counters from whichever
// engine's result is present; re-run after the degradation ladder replaces
// the result with a fallback rung's.
func (a *Analysis) fillResultStats() {
	a.fillEscapeStats()
	var rs *engine.RefStats
	switch {
	case a.Tmod != nil:
		a.Stats.Iterations = a.Tmod.Iterations
		a.Stats.SolvePops = a.Tmod.Iterations
		a.Stats.InterferenceRounds = a.Tmod.Rounds
		rs = a.Tmod.InternStats()
	case a.Result != nil:
		a.Stats.Iterations = a.Result.Iterations
		a.Stats.SolvePops = a.Result.Iterations
		rs = a.Result.InternStats()
	case a.NS != nil:
		a.Stats.Iterations = a.NS.Iterations
		a.Stats.SolvePops = a.NS.Iterations
		rs = a.NS.InternStats()
	case a.CFGFree != nil:
		a.Stats.Iterations = a.CFGFree.Iterations
		a.Stats.SolvePops = int(a.CFGFree.Pops)
		rs = a.CFGFree.InternStats()
	default:
		return
	}
	if a.Base != nil {
		rs.AddFrom(a.Base.Pre.InternStats())
	}
	a.Stats.UniqueSets = rs.Unique
	a.Stats.SetRefs = rs.Refs
	a.Stats.DedupRatio = rs.DedupRatio()
}

// errNoGlobal builds the shared "no such global" error.
func errNoGlobal(name string) error {
	return fmt.Errorf("no global named %q", name)
}

// GlobalObject resolves a global variable by name.
func (a *Analysis) GlobalObject(name string) (*ir.Object, error) {
	if a.Prog == nil {
		return nil, fmt.Errorf("no program (precision %s)", a.Precision)
	}
	if o := a.Prog.GlobalByName[name]; o != nil {
		return o, nil
	}
	return nil, errNoGlobal(name)
}

// PointsToGlobal returns the sorted names of the objects that global name
// may point to at program exit (the exit of main, after all handled joins),
// which is the flow-sensitive "final" answer the paper's examples quote.
// The query answers from the landed engine's view; engines without
// per-point memory states (cfgfree, Andersen-only) answer with their
// flow-insensitive object summary — sound, just less precise.
func (a *Analysis) PointsToGlobal(name string) ([]string, error) {
	obj, err := a.GlobalObject(name)
	if err != nil {
		return nil, err
	}
	if a.view != nil {
		return a.names(a.view.ObjAtExit(a.Prog.Main, obj)), nil
	}
	if a.Result != nil {
		return a.names(a.Result.ObjAtExit(a.Prog.Main, obj)), nil
	}
	return a.andersenNames(obj)
}

// andersenNames answers a points-to query from the pre-analysis (the
// Andersen-only tier).
func (a *Analysis) andersenNames(obj *ir.Object) ([]string, error) {
	if a.Base == nil || a.Base.Pre == nil {
		return nil, fmt.Errorf("no points-to result (precision %s)", a.Precision)
	}
	return a.names(a.Base.Pre.PointsToObj(obj)), nil
}

// PointsToGlobalAnywhere returns the union of the global's points-to sets
// over every definition in the program (a flow-insensitive view of the
// flow-sensitive result; useful for soundness comparisons).
func (a *Analysis) PointsToGlobalAnywhere(name string) ([]string, error) {
	obj, err := a.GlobalObject(name)
	if err != nil {
		return nil, err
	}
	// The sparse and thread-modular engines share one core result shape.
	res := a.Result
	if res == nil && a.Tmod != nil {
		res = a.Tmod.Result
	}
	if a.Graph != nil && res != nil {
		acc := &pts.Set{}
		for _, n := range a.Graph.Nodes {
			if n.Obj == obj {
				acc.UnionWith(res.PointsToMem(n.ID))
			}
		}
		return a.names(acc), nil
	}
	if a.CFGFree != nil {
		// The cfgfree object summary is exactly "everything any admitted
		// store may have put here" — the anywhere answer.
		return a.names(a.CFGFree.PointsToObj(obj)), nil
	}
	return a.andersenNames(obj)
}

// names maps a points-to set to sorted object names.
func (a *Analysis) names(set *pts.Set) []string {
	var out []string
	set.ForEach(func(id uint32) {
		out = append(out, a.Prog.Objects[id].Name)
	})
	sort.Strings(out)
	return out
}

// AliasPairs counts the may-aliasing pairs among the distinct address
// variables of the program's loads and stores, answered from the landed
// engine's view (falling back to the pre-analysis). It is the
// engine-comparison precision metric the bench harness reports: more
// precise engines admit fewer alias pairs, and the soundness ordering
// sparse ≤ cfgfree ≤ Andersen shows up directly in the counts.
func (a *Analysis) AliasPairs() int {
	if a.Prog == nil {
		return 0
	}
	get := a.varPTSFunc()
	if get == nil {
		return 0
	}
	seen := map[*ir.Var]bool{}
	var addrs []*ir.Var
	add := func(v *ir.Var) {
		if v != nil && !seen[v] {
			seen[v] = true
			addrs = append(addrs, v)
		}
	}
	for _, f := range a.Prog.Funcs {
		for _, b := range f.Blocks {
			for _, s := range b.Stmts {
				switch s := s.(type) {
				case *ir.Load:
					add(s.Addr)
				case *ir.Store:
					add(s.Addr)
				}
			}
		}
	}
	sets := make([]*pts.Set, len(addrs))
	for i, v := range addrs {
		sets[i] = get(v)
	}
	pairs := 0
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if sets[i].IntersectsWith(sets[j]) {
				pairs++
			}
		}
	}
	return pairs
}

// PointsToVar returns the landed engine's points-to set for a top-level
// variable (nil when no result at all is available). Every engine is
// sound, so the set covers anything a concrete execution may observe in
// the variable; coarser engines just return bigger sets.
func (a *Analysis) PointsToVar(v *ir.Var) *pts.Set {
	get := a.varPTSFunc()
	if get == nil {
		return nil
	}
	return get(v)
}

// varPTSFunc returns the landed engine's per-variable points-to accessor
// (nil when no result at all is available).
func (a *Analysis) varPTSFunc() func(*ir.Var) *pts.Set {
	if a.view != nil {
		return a.view.PointsToVar
	}
	if a.Result != nil {
		return a.Result.PointsToVar
	}
	if a.Base != nil && a.Base.Pre != nil {
		return a.Base.Pre.PointsToVar
	}
	return nil
}

// DiagnosticsResult is the outcome of running the checker suite over one
// Analysis: finalized diagnostics (canonically sorted, with fingerprints),
// the skip reason of every requested checker that could not run at this
// precision tier, and the number of findings removed by inline
// fsam:ignore suppressions.
type DiagnosticsResult struct {
	Diags      []diag.Diagnostic
	Skipped    map[string]string
	Suppressed int
}

// EscapeResult returns the thread-escape classification for reporting
// clients (fsam -escape, the fsamd ?escape= summary) and the checker
// suite: the engine phases' when they computed one, else a lazy run over
// the thread model. Nil when no thread model exists at all (the
// andersen/cfgfree engines). Memoized — a completed Analysis is an
// immutable value served to concurrent readers.
func (a *Analysis) EscapeResult() *escape.Result {
	a.escOnce.Do(func() {
		a.escLazy = a.Escape
		if a.escLazy == nil && a.Base != nil && a.Base.Model != nil {
			a.escLazy = escape.Analyze(a.Base.Model)
		}
	})
	return a.escLazy
}

// checkerFacts assembles the Facts bundle the checker registry consumes
// from this analysis' completed phases.
func (a *Analysis) checkerFacts() *checkers.Facts {
	f := &checkers.Facts{
		File:          a.SourceName,
		Prog:          a.Prog,
		MHP:           a.MHP,
		Locks:         a.Locks,
		Points:        a.Result,
		FullPrecision: a.Precision == PrecisionSparseFS && a.Result != nil,
		PrecisionNote: a.Precision.String(),
		MemModel:      a.Config.MemModel,
		NoEscapePrune: a.Config.EscapePrune == solver.EscapePruneOff,
	}
	if f.File == "" {
		f.File = "program"
	}
	if a.Stats.Degraded != "" {
		f.PrecisionNote += ": " + a.Stats.Degraded
	}
	if a.Base != nil {
		f.Model = a.Base.Model
		f.Pre = a.Base.Pre
		if a.Base.CG != nil {
			f.Reachable = a.Base.CG.Reachable
		}
	}
	f.Escape = a.EscapeResult()
	return f
}

// Diagnostics runs the diagnostic checker suite (all registered checkers
// when ids is empty) over this analysis and returns the findings in
// canonical order. The full suite runs once per Analysis — repeated and
// concurrent calls share the memoized result, and subset requests filter
// it, so fingerprints (including occurrence suffixes) are identical
// regardless of which checkers a caller selects. Checkers whose required
// analyses are unavailable at this precision tier are reported in Skipped,
// not errors; unknown checker IDs error with checkers.ErrUnknownChecker.
func (a *Analysis) Diagnostics(ids ...string) (*DiagnosticsResult, error) {
	for _, id := range ids {
		if checkers.ByID(id) == nil {
			return nil, fmt.Errorf("%w: %q (known: %v)", checkers.ErrUnknownChecker, id, checkers.IDs())
		}
	}
	a.diagsOnce.Do(func() {
		if a.Prog == nil || a.Base == nil || a.Base.Pre == nil {
			a.diagsErr = fmt.Errorf("diagnostics require a compiled program (precision %s)", a.Precision)
			return
		}
		a.diags, a.diagsErr = checkers.Run(a.checkerFacts())
	})
	if a.diagsErr != nil {
		return nil, a.diagsErr
	}

	want := func(id string) bool { return true }
	if len(ids) > 0 {
		set := map[string]bool{}
		for _, id := range ids {
			set[id] = true
		}
		want = func(id string) bool { return set[id] }
	}
	res := &DiagnosticsResult{Skipped: map[string]string{}}
	for id, reason := range a.diags.Skipped {
		if want(id) {
			res.Skipped[id] = reason
		}
	}
	var selected []diag.Diagnostic
	for _, d := range a.diags.Diags {
		if want(d.Checker) {
			selected = append(selected, d)
		}
	}
	res.Diags, res.Suppressed = a.Suppress.Filter(selected)
	return res, nil
}

// AndersenPointsToGlobal returns the pre-analysis (flow-insensitive) result
// for a global, for precision comparisons.
func (a *Analysis) AndersenPointsToGlobal(name string) ([]string, error) {
	obj, err := a.GlobalObject(name)
	if err != nil {
		return nil, err
	}
	return a.andersenNames(obj)
}
