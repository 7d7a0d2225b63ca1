package solver

// The engine table. Each backend is a thin assembly: pick phases from
// phases.go, extract a PTSView from the State fields those phases write.
// The compile phase is prepended by the facade on the source path, so every
// phase list here starts from State.Prog and lists each phase after the
// phases writing its inputs.

import (
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/pts"
)

// engines is every analysis backend, most precise first, with the
// nonsparse baseline last. Lookup and Names read this one slice.
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

// The escape and lock phases poll no budget, so they run before the
// interleaving fixpoint: a trip there still leaves their results to the
// checkers and to Stats.
func (fsamSolver) Phases(cfg Config) []Phase {
	ps := []Phase{PreAnalysisPhase(cfg.CtxDepth), ThreadModelPhase(), EscapePhase()}
	if !cfg.NoLock {
		ps = append(ps, LocksPhase())
	}
	return append(ps, InterleavePhase(cfg.NoInterleaving), DefUsePhase(cfg), SparsePhase())
}
func (fsamSolver) Result(st *State) PTSView {
	if r := st.Result; r != nil {
		return r
	}
	return nil
}

// tmodSolver is the thread-modular interference engine: per-thread sparse
// flow-sensitive solves over slices of the thread-oblivious def-use graph,
// composed through a global interference environment iterated to fixpoint,
// with the interference gate set by Config.MemModel. Cross-thread flows are
// sound but thread-granular (coarser than fsam's statement-level
// interleaving reasoning); it needs neither the interleaving nor the lock
// analysis, and it runs its own solve rather than fsam's sparse phase.
type tmodSolver struct{}

func (tmodSolver) Name() string    { return "tmod" }
func (tmodSolver) Tier() Precision { return PrecisionThreadModularFS }
func (tmodSolver) Phases(cfg Config) []Phase {
	return []Phase{PreAnalysisPhase(cfg.CtxDepth), ThreadModelPhase(),
		EscapePhase(), ObliviousDefUsePhase(), TmodPhase(cfg)}
}
func (tmodSolver) Result(st *State) PTSView {
	if r := st.Tmod; r != nil {
		return r
	}
	return nil
}

// cfgfreeSolver is the CFG-free flow-sensitive engine: Andersen-style
// propagation with memory flows gated by a one-shot reachability summary.
// It needs no thread model, interference analysis or memory SSA.
type cfgfreeSolver struct{}

func (cfgfreeSolver) Name() string    { return "cfgfree" }
func (cfgfreeSolver) Tier() Precision { return PrecisionCFGFreeFS }
func (cfgfreeSolver) Phases(cfg Config) []Phase {
	return []Phase{PreAnalysisPhase(cfg.CtxDepth), CFGFreePhase()}
}
func (cfgfreeSolver) Result(st *State) PTSView {
	if r := st.CFGFree; r != nil {
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
// every other engine's fallback: its only phase is the pre-analysis every
// engine runs first, so by the time anything expensive can fail, this
// engine's result already exists.
type andersenSolver struct{}

func (andersenSolver) Name() string    { return "andersen" }
func (andersenSolver) Tier() Precision { return PrecisionAndersenOnly }
func (andersenSolver) Phases(cfg Config) []Phase {
	return []Phase{PreAnalysisPhase(cfg.CtxDepth)}
}
func (andersenSolver) Result(st *State) PTSView {
	if st.Base != nil && st.Base.Pre != nil {
		return andersenView{st.Base}
	}
	return nil
}

// nonsparseSolver is the NONSPARSE comparison baseline as a selectable
// engine: it exists to be measured against. Its tier is SparseFS — it
// computes the same thread-aware flow-sensitive result, just non-sparsely.
type nonsparseSolver struct{}

func (nonsparseSolver) Name() string    { return "nonsparse" }
func (nonsparseSolver) Tier() Precision { return PrecisionSparseFS }
func (nonsparseSolver) Phases(cfg Config) []Phase {
	return []Phase{PreAnalysisPhase(cfg.CtxDepth), ThreadModelPhase(),
		NonSparsePhase()}
}
func (nonsparseSolver) Result(st *State) PTSView {
	if r := st.NS; r != nil {
		return r
	}
	return nil
}
