package solver

// The engine table. Each backend is a thin assembly: pick phases from
// phases.go, extract a PTSView from the slots those phases provide. The
// compile phase is prepended by the facade on the source path, so every
// phase list here starts at SlotProg and lists each phase after the phases
// providing its inputs.

import (
	"repro/internal/cfgfree"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/nonsparse"
	"repro/internal/pipeline"
	"repro/internal/pts"
	"repro/internal/tmod"
)

// engines is every analysis backend, in ladder order — strictly
// descending Tier, most precise first — with the off-ladder nonsparse
// baseline last. Lookup, Names and Ladder all read this one slice.
var engines = []Solver{
	fsamSolver{},
	tmodSolver{},
	cfgfreeSolver{},
	andersenSolver{},
	nonsparseSolver{},
}

// fsamSolver is the full sparse flow-sensitive FSAM reproduction.
type fsamSolver struct{}

func (fsamSolver) Name() string    { return "fsam" }
func (fsamSolver) Tier() Precision { return PrecisionSparseFS }
func (fsamSolver) OnLadder() bool  { return true }

// The escape and lock phases poll no budget, so they run before the
// interleaving fixpoint: a trip there still leaves their results to the
// ladder's rungs and to Stats.
func (fsamSolver) Phases(cfg Config) []pipeline.Phase {
	ps := []pipeline.Phase{PreAnalysisPhase(cfg.CtxDepth), ThreadModelPhase(), EscapePhase()}
	if !cfg.NoLock {
		ps = append(ps, LocksPhase())
	}
	return append(ps, InterleavePhase(cfg.NoInterleaving), DefUsePhase(cfg), SparsePhase())
}
func (fsamSolver) Result(st *pipeline.State) PTSView {
	if r := pipeline.Get[*core.Result](st, SlotResult); r != nil {
		return r
	}
	return nil
}

// tmodSolver is the thread-modular interference engine: per-thread sparse
// flow-sensitive solves over slices of the thread-oblivious def-use graph,
// composed through a global interference environment iterated to fixpoint,
// with the interference gate set by Config.MemModel. Cross-thread flows are
// sound but thread-granular (coarser than fsam's statement-level
// interleaving reasoning), which makes it the ladder's first rung below
// fsam: it needs neither the interleaving nor the lock analysis, and it
// runs its own solve rather than fsam's sparse phase.
type tmodSolver struct{}

func (tmodSolver) Name() string    { return "tmod" }
func (tmodSolver) Tier() Precision { return PrecisionThreadModularFS }
func (tmodSolver) OnLadder() bool  { return true }
func (tmodSolver) Phases(cfg Config) []pipeline.Phase {
	return []pipeline.Phase{PreAnalysisPhase(cfg.CtxDepth), ThreadModelPhase(),
		EscapePhase(), ObliviousDefUsePhase(), TmodPhase(cfg)}
}
func (tmodSolver) Result(st *pipeline.State) PTSView {
	if r := pipeline.Get[*tmod.Result](st, SlotTmod); r != nil {
		return r
	}
	return nil
}

// cfgfreeSolver is the CFG-free flow-sensitive engine: Andersen-style
// propagation with memory flows gated by a one-shot reachability summary.
// It needs no thread model, interference analysis or memory SSA, which is
// what makes it the ladder rung between thread-modular FS and
// Andersen-only.
type cfgfreeSolver struct{}

func (cfgfreeSolver) Name() string    { return "cfgfree" }
func (cfgfreeSolver) Tier() Precision { return PrecisionCFGFreeFS }
func (cfgfreeSolver) OnLadder() bool  { return true }
func (cfgfreeSolver) Phases(cfg Config) []pipeline.Phase {
	return []pipeline.Phase{PreAnalysisPhase(cfg.CtxDepth), CFGFreePhase(cfg)}
}
func (cfgfreeSolver) Result(st *pipeline.State) PTSView {
	if r := pipeline.Get[*cfgfree.Result](st, SlotCFGFree); r != nil {
		return r
	}
	return nil
}

// andersenView answers every query from the flow-insensitive
// pre-analysis.
type andersenView struct{ b *pipeline.Base }

func (v andersenView) PointsToVar(x *ir.Var) *pts.Set { return v.b.Pre.PointsToVar(x) }
func (v andersenView) ObjAtExit(main *ir.Function, obj *ir.Object) *pts.Set {
	return v.b.Pre.PointsToObj(obj)
}

// andersenSolver exposes the pre-analysis as a first-class engine — and
// the ladder's bottom rung: its only phase is the pre-analysis every other
// engine already needs, so by the time anything expensive can fail, this
// engine's result already exists.
type andersenSolver struct{}

func (andersenSolver) Name() string    { return "andersen" }
func (andersenSolver) Tier() Precision { return PrecisionAndersenOnly }
func (andersenSolver) OnLadder() bool  { return true }
func (andersenSolver) Phases(cfg Config) []pipeline.Phase {
	return []pipeline.Phase{PreAnalysisPhase(cfg.CtxDepth)}
}
func (andersenSolver) Result(st *pipeline.State) PTSView {
	if b := pipeline.Get[*pipeline.Base](st, SlotBase); b != nil && b.Pre != nil {
		return andersenView{b}
	}
	return nil
}

// nonsparseSolver is the NONSPARSE comparison baseline as a selectable
// engine. Off the ladder: it exists to be measured against, not to be a
// fallback (its cost profile dominates the sparse engine's). Its tier is
// SparseFS — it computes the same thread-aware flow-sensitive result, just
// non-sparsely — so a degraded run of it walks the same rungs as fsam.
type nonsparseSolver struct{}

func (nonsparseSolver) Name() string    { return "nonsparse" }
func (nonsparseSolver) Tier() Precision { return PrecisionSparseFS }
func (nonsparseSolver) OnLadder() bool  { return false }
func (nonsparseSolver) Phases(cfg Config) []pipeline.Phase {
	return []pipeline.Phase{PreAnalysisPhase(cfg.CtxDepth), ThreadModelPhase(),
		NonSparsePhase()}
}
func (nonsparseSolver) Result(st *pipeline.State) PTSView {
	if r := pipeline.Get[*nonsparse.Result](st, SlotNSResult); r != nil {
		return r
	}
	return nil
}
