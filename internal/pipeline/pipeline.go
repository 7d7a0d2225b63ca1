// Package pipeline wires the analysis stages together: parse → IR →
// pre-analysis → call graph → ICFG → thread model, and provides the pass
// manager (manager.go) that runs those stages — plus the interference and
// solve stages the facade registers — as an ordered phase list. It
// exists so the public facade, the benchmark harness and the internal tests
// share one setup path.
package pipeline

import (
	"context"

	"repro/internal/andersen"
	"repro/internal/callgraph"
	"repro/internal/frontend/parser"
	"repro/internal/icfg"
	"repro/internal/ir"
	"repro/internal/irbuild"
	"repro/internal/mhp"
	"repro/internal/threads"
)

// Base bundles the substrate every interference analysis builds on. Model
// is nil until BuildThreadModel runs (the thread model is its own pipeline
// phase, so the manager can time it separately from the pre-analysis).
type Base struct {
	Prog  *ir.Program
	Pre   *andersen.Result
	CG    *callgraph.Graph
	G     *icfg.Graph
	Ctxs  *callgraph.Ctxs
	Model *threads.Model
}

// Compile parses and lowers MiniC source into IR. Malformed source is a
// positioned error ("name:line:col: message"), never a panic.
func Compile(name, src string) (*ir.Program, error) {
	f, err := parser.ParseChecked(name, src)
	if err != nil {
		return nil, err
	}
	return irbuild.BuildChecked(f)
}

// BuildPre runs the pre-analysis and constructs the call graph, ICFG and
// context table for prog (the "preanalysis" phase; Model stays nil until
// BuildThreadModel). maxCtxDepth bounds call strings (<=0 for the
// default). On ctx cancellation it returns (nil, ctx.Err()).
func BuildPre(ctx context.Context, prog *ir.Program, maxCtxDepth int) (*Base, error) {
	pre, err := andersen.AnalyzeCtx(ctx, prog)
	if err != nil {
		return nil, err
	}
	return BuildPreFrom(ctx, pre, maxCtxDepth)
}

// BuildPreFrom constructs the call graph, ICFG and context table over an
// already-computed (or rebound) pre-analysis. It is the incremental path's
// entry into the pipeline: when an isomorphic edit lets the pre-analysis
// be adopted from a previous run, only this cheap glue is rebuilt.
func BuildPreFrom(ctx context.Context, pre *andersen.Result, maxCtxDepth int) (*Base, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cg := callgraph.Build(pre)
	g := icfg.Build(cg)
	ctxs := callgraph.NewCtxs(maxCtxDepth)
	return &Base{Prog: pre.Prog, Pre: pre, CG: cg, G: g, Ctxs: ctxs}, nil
}

// BuildThreadModel constructs the static thread model (the "threadmodel"
// phase) over an already-built substrate.
func (b *Base) BuildThreadModel() {
	b.Model = threads.BuildModel(b.Pre, b.CG, b.G, b.Ctxs)
}

// BuildBase runs the pre-analysis and constructs the call graph, ICFG and
// static thread model for prog in one call (the non-managed path used by
// tests and benchmarks). maxCtxDepth bounds call strings (<=0 for the
// default).
func BuildBase(prog *ir.Program, maxCtxDepth int) *Base {
	b, _ := BuildPre(context.Background(), prog, maxCtxDepth)
	b.BuildThreadModel()
	return b
}

// FromSource compiles src and builds the base pipeline.
func FromSource(name, src string) (*Base, error) {
	prog, err := Compile(name, src)
	if err != nil {
		return nil, err
	}
	return BuildBase(prog, 0), nil
}

// Interleavings runs the statement-level interleaving analysis.
func (b *Base) Interleavings() *mhp.Result {
	return mhp.Analyze(b.Model)
}
