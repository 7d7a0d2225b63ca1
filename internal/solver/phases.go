package solver

// The analysis pipelines as phase DAGs over the pass manager
// (internal/pipeline). Each phase declares the State slots it consumes and
// produces; the manager derives the dependency DAG, runs independent
// phases concurrently (the interleaving and lock analyses both consume
// only the thread model, so they overlap), enforces the per-run context
// deadline, and records per-phase wall time and bytes — the facade's
// Stats.Phases are the manager's Report entries, not inline stopwatches.
//
// The constructors here are the shared phase vocabulary the registered
// backends assemble their DAGs from; they are exported so the facade (the
// compile phase), the baseline API, and the fault-injection tests can name
// them.

import (
	"context"
	"fmt"

	"repro/internal/andersen"
	"repro/internal/cfgfree"
	"repro/internal/core"
	"repro/internal/escape"
	"repro/internal/ir"
	"repro/internal/locks"
	"repro/internal/mhp"
	"repro/internal/nonsparse"
	"repro/internal/pcg"
	"repro/internal/pipeline"
	"repro/internal/threads"
	"repro/internal/tmod"
	"repro/internal/vfg"
)

// State slot and phase names shared by every engine's phase DAG.
const (
	SlotProg     = "prog"     // *ir.Program
	SlotBase     = "base"     // *pipeline.Base (Model nil until threadmodel)
	SlotModel    = "model"    // *threads.Model
	SlotMHP      = "mhp"      // *mhp.Result
	SlotPCG      = "pcg"      // *pcg.Result
	SlotLocks    = "locks"    // *locks.Result
	SlotVFG      = "vfg"      // *vfg.Graph
	SlotResult   = "result"   // *core.Result
	SlotNSResult = "nsresult" // *nonsparse.Result
	SlotCFGFree  = "cfgfree"  // *cfgfree.Result
	SlotTmod     = "tmod"     // *tmod.Result
	SlotEscape   = "escape"   // *escape.Result

	PhaseCompile   = "compile"
	PhasePre       = "preanalysis"
	PhaseModel     = "threadmodel"
	PhaseIL        = "interleave"
	PhaseLocks     = "locks"
	PhaseEscape    = "escape"
	PhaseDefUse    = "defuse"
	PhaseSparse    = "sparse"
	PhaseNonSparse = "nonsparse"
	PhaseCFGFree   = "cfgfree"
	PhaseTmod      = "tmod"
)

// ResultSlots lists every slot that holds an engine's final result. The
// degradation ladder clears them all before retrying a cheaper rung, so a
// failed tier's partial outputs can neither leak into the next rung's view
// nor hold heap a memory-budgeted retry needs back.
var ResultSlots = []string{SlotVFG, SlotResult, SlotNSResult, SlotCFGFree, SlotTmod}

// CompilePhase parses and lowers source into the prog slot. Having it on
// the manager means compile time is measured directly rather than derived
// by subtracting the other phases from a wall clock.
func CompilePhase(name, src string) pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseCompile,
		Provides: []string{SlotProg},
		Run: func(ctx context.Context, st *pipeline.State) error {
			prog, err := pipeline.Compile(name, src)
			if err != nil {
				return err
			}
			st.Put(SlotProg, prog)
			return nil
		},
	}
}

// PreAnalysisPhase runs Andersen + call graph + ICFG + context table.
func PreAnalysisPhase(ctxDepth int) pipeline.Phase {
	return pipeline.Phase{
		Name:     PhasePre,
		Needs:    []string{SlotProg},
		Provides: []string{SlotBase},
		Run: func(ctx context.Context, st *pipeline.State) error {
			base, err := pipeline.BuildPre(ctx, pipeline.Get[*ir.Program](st, SlotProg), ctxDepth)
			if err != nil {
				return err
			}
			st.Put(SlotBase, base)
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			return pipeline.Get[*pipeline.Base](st, SlotBase).Pre.Bytes()
		},
	}
}

// PreAnalysisFromPhase is the preanalysis phase of the incremental path:
// instead of running Andersen it adopts pre — a pre-analysis rebound onto
// the program in the prog slot — and rebuilds only the cheap glue (call
// graph, ICFG, context table). It reports under the same phase name as
// PreAnalysisPhase so phase timing stays uniform across cold and warm
// runs.
func PreAnalysisFromPhase(pre *andersen.Result, ctxDepth int) pipeline.Phase {
	return pipeline.Phase{
		Name:     PhasePre,
		Needs:    []string{SlotProg},
		Provides: []string{SlotBase},
		Run: func(ctx context.Context, st *pipeline.State) error {
			base, err := pipeline.BuildPreFrom(ctx, pre, ctxDepth)
			if err != nil {
				return err
			}
			st.Put(SlotBase, base)
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			return pipeline.Get[*pipeline.Base](st, SlotBase).Pre.Bytes()
		},
	}
}

// ThreadModelPhase builds the static thread model.
func ThreadModelPhase() pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseModel,
		Needs:    []string{SlotBase},
		Provides: []string{SlotModel},
		Run: func(ctx context.Context, st *pipeline.State) error {
			base := pipeline.Get[*pipeline.Base](st, SlotBase)
			base.BuildThreadModel()
			st.Put(SlotModel, base.Model)
			return nil
		},
	}
}

// InterleavePhase runs the precise interleaving analysis (or the coarse
// PCG under NoInterleaving). Independent of the lock phase by
// construction: both consume only the thread model.
func InterleavePhase(noInterleaving bool) pipeline.Phase {
	provides := SlotMHP
	if noInterleaving {
		provides = SlotPCG
	}
	return pipeline.Phase{
		Name:     PhaseIL,
		Needs:    []string{SlotModel},
		Provides: []string{provides},
		Run: func(ctx context.Context, st *pipeline.State) error {
			model := pipeline.Get[*threads.Model](st, SlotModel)
			if noInterleaving {
				st.Put(SlotPCG, pcg.Analyze(model))
				return nil
			}
			il, err := mhp.AnalyzeCtx(ctx, model)
			if err != nil {
				return err
			}
			st.Put(SlotMHP, il)
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			if noInterleaving {
				return pipeline.Get[*pcg.Result](st, SlotPCG).Bytes()
			}
			return pipeline.Get[*mhp.Result](st, SlotMHP).Bytes()
		},
	}
}

// LocksPhase discovers lock-release spans.
func LocksPhase() pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseLocks,
		Needs:    []string{SlotModel},
		Provides: []string{SlotLocks},
		Run: func(ctx context.Context, st *pipeline.State) error {
			st.Put(SlotLocks, locks.Analyze(pipeline.Get[*threads.Model](st, SlotModel)))
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			return pipeline.Get[*locks.Result](st, SlotLocks).Bytes()
		},
	}
}

// EscapePhase runs the thread-escape/sharedness classification over the
// thread model. It always runs for engines that consult interference —
// the verdicts feed Stats and the escape-aware checkers even when pruning
// is off — and the consuming phases decide from cfg.EscapePrune whether
// to use it as a pruning oracle.
func EscapePhase() pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseEscape,
		Needs:    []string{SlotModel},
		Provides: []string{SlotEscape},
		Run: func(ctx context.Context, st *pipeline.State) error {
			st.Put(SlotEscape, escape.Analyze(pipeline.Get[*threads.Model](st, SlotModel)))
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			return pipeline.Get[*escape.Result](st, SlotEscape).Bytes()
		},
	}
}

// escapeOracle returns the computed escape result when cfg enables
// pruning, nil otherwise.
func escapeOracle(cfg Config, st *pipeline.State) *escape.Result {
	if cfg.EscapePrune == EscapePruneOff {
		return nil
	}
	return pipeline.Get[*escape.Result](st, SlotEscape)
}

// DefUsePhase builds the thread-oblivious + thread-aware def-use graph.
func DefUsePhase(cfg Config) pipeline.Phase {
	needs := []string{SlotModel, SlotEscape}
	if cfg.NoInterleaving {
		needs = append(needs, SlotPCG)
	} else {
		needs = append(needs, SlotMHP)
	}
	if !cfg.NoLock {
		needs = append(needs, SlotLocks)
	}
	return pipeline.Phase{
		Name:     PhaseDefUse,
		Needs:    needs,
		Provides: []string{SlotVFG},
		Run: func(ctx context.Context, st *pipeline.State) error {
			opt := vfg.Options{
				Interleave:  pipeline.Get[*mhp.Result](st, SlotMHP),
				PCG:         pipeline.Get[*pcg.Result](st, SlotPCG),
				Locks:       pipeline.Get[*locks.Result](st, SlotLocks),
				NoValueFlow: cfg.NoValueFlow,
			}
			// The oracle's soundness argument needs the pointer gate the
			// No-Value-Flow ablation removes, so that configuration always
			// builds unpruned.
			if !cfg.NoValueFlow {
				opt.Escape = escapeOracle(cfg, st)
			}
			g, err := vfg.BuildCtx(ctx, pipeline.Get[*threads.Model](st, SlotModel), opt)
			if err != nil {
				return err
			}
			st.Put(SlotVFG, g)
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			return pipeline.Get[*vfg.Graph](st, SlotVFG).Bytes()
		},
	}
}

// ObliviousDefUsePhase builds the def-use graph in thread-oblivious mode
// (sequential memory SSA plus fork-bypass/join edges, no [THREAD-VF]).
// It is the oblivious engine's def-use stage and the degradation ladder's
// second rung: it consumes only the thread model, so it can run after the
// interference analyses failed.
func ObliviousDefUsePhase() pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseDefUse,
		Needs:    []string{SlotModel},
		Provides: []string{SlotVFG},
		Run: func(ctx context.Context, st *pipeline.State) error {
			g, err := vfg.BuildCtx(ctx, pipeline.Get[*threads.Model](st, SlotModel),
				vfg.Options{ThreadOblivious: true})
			if err != nil {
				return err
			}
			st.Put(SlotVFG, g)
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			return pipeline.Get[*vfg.Graph](st, SlotVFG).Bytes()
		},
	}
}

// SparsePhase runs the sparse flow-sensitive solve.
func SparsePhase() pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseSparse,
		Needs:    []string{SlotModel, SlotVFG},
		Provides: []string{SlotResult},
		Run: func(ctx context.Context, st *pipeline.State) error {
			res, err := core.SolveCtx(ctx,
				pipeline.Get[*threads.Model](st, SlotModel),
				pipeline.Get[*vfg.Graph](st, SlotVFG))
			if err != nil {
				return err
			}
			st.Put(SlotResult, res)
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			// Result.Bytes includes the def-use graph, which the defuse
			// phase already accounts for.
			res := pipeline.Get[*core.Result](st, SlotResult)
			return res.Bytes() - pipeline.Get[*vfg.Graph](st, SlotVFG).Bytes()
		},
	}
}

// TmodPhase runs the thread-modular interference solve over the
// thread-oblivious def-use graph: per-thread sparse solves (one goroutine
// per thread unless cfg.Sequential) iterated against a global interference
// environment gated by cfg.MemModel. Per-round and per-thread wall times
// ride the Report as subphases ("tmod.round1", "tmod.thread0", ...).
func TmodPhase(cfg Config) pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseTmod,
		Needs:    []string{SlotModel, SlotVFG, SlotEscape},
		Provides: []string{SlotTmod},
		Run: func(ctx context.Context, st *pipeline.State) error {
			res, err := tmod.SolveCtx(ctx,
				pipeline.Get[*threads.Model](st, SlotModel),
				pipeline.Get[*vfg.Graph](st, SlotVFG),
				tmod.Options{MemModel: cfg.MemModel, Sequential: cfg.Sequential,
					Escape: escapeOracle(cfg, st)})
			if err != nil {
				return err
			}
			st.Put(SlotTmod, res)
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			// Result.Bytes includes the def-use graph, which the defuse
			// phase already accounts for.
			res := pipeline.Get[*tmod.Result](st, SlotTmod)
			return res.Bytes() - pipeline.Get[*vfg.Graph](st, SlotVFG).Bytes()
		},
		Subphases: func(st *pipeline.State) []pipeline.Entry {
			res := pipeline.Get[*tmod.Result](st, SlotTmod)
			if res == nil {
				return nil
			}
			out := make([]pipeline.Entry, 0, len(res.RoundWall)+len(res.ThreadWall))
			for i, d := range res.RoundWall {
				out = append(out, pipeline.Entry{Name: fmt.Sprintf("round%d", i+1), Time: d})
			}
			for i, d := range res.ThreadWall {
				out = append(out, pipeline.Entry{Name: fmt.Sprintf("thread%d", i), Time: d})
			}
			return out
		},
	}
}

// CFGFreePhase runs the CFG-free flow-sensitive solve over the
// pre-analysis Base. It needs only SlotBase, so it can run as a
// degradation rung after the thread model or interference analyses failed.
// SlotEscape is picked up opportunistically rather than required: the
// standalone cfgfree engine has no thread model to classify against, but a
// degradation from a higher rung that already computed the verdicts hands
// them to the reach-admission gate for free.
func CFGFreePhase(cfg Config) pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseCFGFree,
		Needs:    []string{SlotBase},
		Provides: []string{SlotCFGFree},
		Run: func(ctx context.Context, st *pipeline.State) error {
			base := pipeline.Get[*pipeline.Base](st, SlotBase)
			var shared cfgfree.SharedFn
			if esc := escapeOracle(cfg, st); esc != nil {
				shared = func(objID uint32) bool { return esc.IsShared(ir.ObjID(objID)) }
			}
			res, err := cfgfree.AnalyzeCtxPruned(ctx, base.CG, base.G, shared)
			if err != nil {
				return err
			}
			st.Put(SlotCFGFree, res)
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			return pipeline.Get[*cfgfree.Result](st, SlotCFGFree).Bytes()
		},
	}
}

// NonSparsePhase runs the iterative whole-program data-flow solve with the
// baseline API's partial-result semantics: an expired deadline is a
// partial result (Result.OOT), not a phase failure — Table 2 reports OOT
// rows, it doesn't abort them.
func NonSparsePhase() pipeline.Phase {
	return pipeline.Phase{
		Name:     PhaseNonSparse,
		Needs:    []string{SlotBase, SlotModel},
		Provides: []string{SlotNSResult},
		Run: func(ctx context.Context, st *pipeline.State) error {
			base := pipeline.Get[*pipeline.Base](st, SlotBase)
			st.Put(SlotNSResult, nonsparse.AnalyzeCtx(ctx, base))
			return nil
		},
		Bytes: func(st *pipeline.State) uint64 {
			return pipeline.Get[*nonsparse.Result](st, SlotNSResult).Bytes()
		},
	}
}

// EngineNonSparsePhase is the nonsparse solve with engine semantics: a
// solve that stopped before convergence is a phase failure, so the
// degradation ladder can take over — symmetric with how the sparse and
// cfgfree engines report deadline and budget trips.
func EngineNonSparsePhase() pipeline.Phase {
	p := NonSparsePhase()
	inner := p.Run
	p.Run = func(ctx context.Context, st *pipeline.State) error {
		if err := inner(ctx, st); err != nil {
			return err
		}
		if r := pipeline.Get[*nonsparse.Result](st, SlotNSResult); r != nil && r.OOT {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("nonsparse solve stopped before convergence")
		}
		return nil
	}
	return p
}

// NonSparsePhases assembles the NONSPARSE baseline DAG; withCompile
// prepends the compile phase, otherwise the prog slot must be seeded.
func NonSparsePhases(name, src string, withCompile bool) []pipeline.Phase {
	var ps []pipeline.Phase
	if withCompile {
		ps = append(ps, CompilePhase(name, src))
	}
	return append(ps, PreAnalysisPhase(0), ThreadModelPhase(), NonSparsePhase())
}
