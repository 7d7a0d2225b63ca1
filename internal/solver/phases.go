package solver

// The analysis pipelines as ordered phase lists over the pass manager
// (internal/pipeline). Each phase reads and writes fields of one State;
// the manager runs the phases in list order, so a phase reads only what
// an earlier phase of the list wrote. It also enforces the per-run
// context deadline and records per-phase wall time and bytes — the
// facade's Stats.Phases are the manager's Report entries, not inline
// stopwatches.
//
// The constructors here are the shared phase vocabulary the engine
// table's backends assemble their phase lists from; they are exported so
// the facade (the compile phase), the incremental path, and the
// fault-injection tests can name them.

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
	"repro/internal/tmod"
	"repro/internal/vfg"
)

// State is what a run's phases read and write: the compiled program, the
// pre-analysis substrate (whose Model field is the thread model), and each
// stage's result. A field is nil until the phase that writes it has run.
// The public fsam.Analysis embeds it, so a run's phases fill in the
// facade directly.
type State struct {
	Prog    *ir.Program
	Base    *pipeline.Base
	MHP     *mhp.Result       // nil unless an fsam-engine run with interleaving
	PCG     *pcg.Result       // non-nil under NoInterleaving
	Locks   *locks.Result     // nil under NoLock
	Escape  *escape.Result    // thread-escape classification (nil without a thread model)
	Graph   *vfg.Graph        // def-use graph (sparse engines)
	Result  *core.Result      // sparse flow-sensitive result
	NS      *nonsparse.Result // NONSPARSE engine result
	CFGFree *cfgfree.Result   // CFG-free engine result
	Tmod    *tmod.Result      // thread-modular engine result
}

// Phase is a pipeline phase over State.
type Phase = pipeline.Phase[State]

// Phase names shared by every engine's phase list.
const (
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

// CompilePhase parses and lowers source into Prog. Having it on the
// manager means compile time is measured directly rather than derived by
// subtracting the other phases from a wall clock.
func CompilePhase(name, src string) Phase {
	return Phase{
		Name: PhaseCompile,
		Run: func(ctx context.Context, st *State) (err error) {
			st.Prog, err = pipeline.Compile(name, src)
			return err
		},
	}
}

// preBytes is shared by both preanalysis constructors.
func preBytes(st *State) uint64 { return st.Base.Pre.Bytes() }

// PreAnalysisPhase runs Andersen + call graph + ICFG + context table.
func PreAnalysisPhase(ctxDepth int) Phase {
	return Phase{
		Name: PhasePre,
		Run: func(ctx context.Context, st *State) (err error) {
			st.Base, err = pipeline.BuildPre(ctx, st.Prog, ctxDepth)
			return err
		},
		Bytes: preBytes,
	}
}

// PreAnalysisFromPhase is the preanalysis phase of the incremental path:
// instead of running Andersen it adopts pre — a pre-analysis rebound onto
// the program in Prog — and rebuilds only the cheap glue (call graph,
// ICFG, context table). It reports under the same phase name as
// PreAnalysisPhase so phase timing stays uniform across cold and warm
// runs.
func PreAnalysisFromPhase(pre *andersen.Result, ctxDepth int) Phase {
	return Phase{
		Name: PhasePre,
		Run: func(ctx context.Context, st *State) (err error) {
			st.Base, err = pipeline.BuildPreFrom(ctx, pre, ctxDepth)
			return err
		},
		Bytes: preBytes,
	}
}

// ThreadModelPhase builds the static thread model into Base.Model.
func ThreadModelPhase() Phase {
	return Phase{
		Name: PhaseModel,
		Run: func(ctx context.Context, st *State) error {
			st.Base.BuildThreadModel()
			return nil
		},
	}
}

// InterleavePhase runs the precise interleaving analysis (or the coarse
// PCG under NoInterleaving). Like the lock and escape phases it consumes
// only the thread model.
func InterleavePhase(noInterleaving bool) Phase {
	return Phase{
		Name: PhaseIL,
		Run: func(ctx context.Context, st *State) (err error) {
			if noInterleaving {
				st.PCG = pcg.Analyze(st.Base.Model)
				return nil
			}
			st.MHP, err = mhp.AnalyzeCtx(ctx, st.Base.Model)
			return err
		},
		Bytes: func(st *State) uint64 {
			if noInterleaving {
				return st.PCG.Bytes()
			}
			return st.MHP.Bytes()
		},
	}
}

// LocksPhase discovers lock-release spans.
func LocksPhase() Phase {
	return Phase{
		Name: PhaseLocks,
		Run: func(ctx context.Context, st *State) error {
			st.Locks = locks.Analyze(st.Base.Model)
			return nil
		},
		Bytes: func(st *State) uint64 { return st.Locks.Bytes() },
	}
}

// EscapePhase runs the thread-escape/sharedness classification over the
// thread model. Its verdicts feed Stats and the escape-aware checkers, and
// the def-use and tmod phases use them as a pruning oracle.
func EscapePhase() Phase {
	return Phase{
		Name: PhaseEscape,
		Run: func(ctx context.Context, st *State) error {
			st.Escape = escape.Analyze(st.Base.Model)
			return nil
		},
		Bytes: func(st *State) uint64 { return st.Escape.Bytes() },
	}
}

// DefUsePhase builds the thread-oblivious + thread-aware def-use graph.
func DefUsePhase(cfg Config) Phase {
	return Phase{
		Name: PhaseDefUse,
		Run: func(ctx context.Context, st *State) (err error) {
			opt := vfg.Options{
				Interleave:  st.MHP,
				PCG:         st.PCG,
				Locks:       st.Locks,
				NoValueFlow: cfg.NoValueFlow,
			}
			// The oracle's soundness argument needs the pointer gate the
			// No-Value-Flow ablation removes, so that configuration always
			// builds unpruned.
			if !cfg.NoValueFlow {
				opt.Escape = st.Escape
			}
			st.Graph, err = vfg.BuildCtx(ctx, st.Base.Model, opt)
			return err
		},
		Bytes: graphBytes,
	}
}

func graphBytes(st *State) uint64 { return st.Graph.Bytes() }

// ObliviousDefUsePhase builds the def-use graph in thread-oblivious mode
// (sequential memory SSA plus fork-bypass/join edges, no [THREAD-VF]).
// It is the thread-modular engine's def-use stage and consumes only the
// thread model.
func ObliviousDefUsePhase() Phase {
	return Phase{
		Name: PhaseDefUse,
		Run: func(ctx context.Context, st *State) (err error) {
			st.Graph, err = vfg.BuildCtx(ctx, st.Base.Model, vfg.Options{ThreadOblivious: true})
			return err
		},
		Bytes: graphBytes,
	}
}

// SparsePhase runs the sparse flow-sensitive solve.
func SparsePhase() Phase {
	return Phase{
		Name: PhaseSparse,
		Run: func(ctx context.Context, st *State) (err error) {
			st.Result, err = core.SolveCtx(ctx, st.Base.Model, st.Graph)
			return err
		},
		Bytes: func(st *State) uint64 {
			// Result.Bytes includes the def-use graph, which the defuse
			// phase already accounts for.
			return st.Result.Bytes() - st.Graph.Bytes()
		},
	}
}

// TmodPhase runs the thread-modular interference solve over the
// thread-oblivious def-use graph: per-thread sparse solves (one goroutine
// per thread) iterated against a global interference environment gated
// by cfg.MemModel. Per-round and per-thread wall times ride the Report as
// subphases ("tmod.round1", "tmod.thread0", ...).
func TmodPhase(cfg Config) Phase {
	return Phase{
		Name: PhaseTmod,
		Run: func(ctx context.Context, st *State) (err error) {
			st.Tmod, err = tmod.SolveCtx(ctx, st.Base.Model, st.Graph,
				tmod.Options{MemModel: cfg.MemModel, Escape: st.Escape})
			return err
		},
		Bytes: func(st *State) uint64 {
			// Result.Bytes includes the def-use graph, which the defuse
			// phase already accounts for.
			return st.Tmod.Bytes() - st.Graph.Bytes()
		},
		Subphases: func(st *State) []pipeline.Entry {
			res := st.Tmod
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
// pre-analysis Base; it needs no thread model.
func CFGFreePhase() Phase {
	return Phase{
		Name: PhaseCFGFree,
		Run: func(ctx context.Context, st *State) (err error) {
			st.CFGFree, err = cfgfree.AnalyzeCtx(ctx, st.Base.CG, st.Base.G)
			return err
		},
		Bytes: func(st *State) uint64 { return st.CFGFree.Bytes() },
	}
}

// NonSparsePhase runs the iterative whole-program data-flow solve. A solve
// that stopped before convergence fails the phase with its canceller's
// deadline or budget error, so the run degrades to Andersen-only —
// symmetric with how the sparse and cfgfree engines report deadline and
// budget trips. A caller that wants the out-of-time verdict instead
// (Table 2's OOT rows) sets Config.NoDegrade and tests the error with
// pipeline.ErrCancelled.
func NonSparsePhase() Phase {
	return Phase{
		Name: PhaseNonSparse,
		Run: func(ctx context.Context, st *State) error {
			st.NS = nonsparse.AnalyzeCtx(ctx, st.Base)
			return st.NS.Err
		},
		Bytes: func(st *State) uint64 { return st.NS.Bytes() },
	}
}
