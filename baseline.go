package fsam

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/ir"
	"repro/internal/nonsparse"
	"repro/internal/pipeline"
	"repro/internal/solver"
)

// Baseline is a completed NONSPARSE run (the paper's comparison analysis).
type Baseline struct {
	Prog   *ir.Program
	Base   *pipeline.Base
	Result *nonsparse.Result
	Stats  Stats
	// OOT reports that the run exceeded its deadline before convergence.
	OOT bool
	// Err records a non-deadline failure (e.g. a contained phase panic)
	// when the caller used the error-less AnalyzeProgramNonSparse entry
	// point; nil otherwise.
	Err error
}

// AnalyzeSourceNonSparse parses and analyzes src with the NONSPARSE
// baseline. timeout <= 0 disables the deadline.
func AnalyzeSourceNonSparse(name, src string, timeout time.Duration) (*Baseline, error) {
	ctx, cancel := deadlineCtx(timeout)
	defer cancel()
	b, err := runNonSparse(ctx, solver.NonSparsePhases(name, src, true), pipeline.NewState())
	var pe *pipeline.PhaseError
	if errors.As(err, &pe) && pe.Phase == solver.PhaseCompile {
		return nil, pe.Err // a source error, not an analysis failure
	}
	if err != nil && pipeline.ErrCancelled(err) {
		b.OOT = true // deadline hit before the solve phase even started
		return b, nil
	}
	return b, err
}

// AnalyzeProgramNonSparse runs the baseline over an existing program. It
// never panics: a deadline sets OOT, any other contained failure lands in
// Baseline.Err alongside whatever phases completed.
func AnalyzeProgramNonSparse(prog *ir.Program, timeout time.Duration) *Baseline {
	ctx, cancel := deadlineCtx(timeout)
	defer cancel()
	b, err := AnalyzeProgramNonSparseCtx(ctx, prog)
	if b == nil {
		b = &Baseline{Prog: prog}
	}
	if err != nil {
		if pipeline.ErrCancelled(err) {
			b.OOT = true
			return b
		}
		b.Err = err
	}
	return b
}

// AnalyzeProgramNonSparseCtx runs the baseline under a context. A deadline
// that expires during the solve yields a partial Result with OOT set (and
// nil error); one that expires in an earlier phase surfaces as a
// *pipeline.PhaseError alongside the partially-populated Baseline.
func AnalyzeProgramNonSparseCtx(ctx context.Context, prog *ir.Program) (*Baseline, error) {
	st := pipeline.NewState()
	st.Put(solver.SlotProg, prog)
	return runNonSparse(ctx, solver.NonSparsePhases("", "", false), st)
}

// deadlineCtx maps the legacy timeout parameter onto a context.
func deadlineCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), timeout)
}

// runNonSparse schedules the baseline DAG and assembles the facade view.
func runNonSparse(ctx context.Context, phases []pipeline.Phase, st *pipeline.State) (*Baseline, error) {
	mgr, err := newManager(Config{}, "nonsparse", phases)
	if err != nil {
		return nil, err
	}
	rep, runErr := mgr.Run(ctx, st)
	b := &Baseline{
		Prog:   pipeline.Get[*ir.Program](st, solver.SlotProg),
		Base:   pipeline.Get[*pipeline.Base](st, solver.SlotBase),
		Result: pipeline.Get[*nonsparse.Result](st, solver.SlotNSResult),
	}
	b.fillStats(rep)
	return b, runErr
}

// fillStats maps the manager's Report onto the baseline Stats.
func (b *Baseline) fillStats(rep *pipeline.Report) {
	b.Stats.Phases = rep.Entries()
	b.Stats.Bytes = rep.TotalBytes()
	if b.Prog != nil {
		b.Stats.Stmts = b.Prog.NumStmts()
	}
	if b.Base != nil {
		b.Stats.PrePops = b.Base.Pre.Pops
		if b.Base.Model != nil {
			b.Stats.Threads = len(b.Base.Model.Threads)
		}
	}
	if b.Result != nil {
		b.OOT = b.Result.OOT
		b.Stats.Iterations = b.Result.Iterations
		b.Stats.SolvePops = b.Result.Iterations
		rs := b.Result.InternStats()
		if b.Base != nil {
			rs.AddFrom(b.Base.Pre.InternStats())
		}
		b.Stats.UniqueSets = rs.Unique
		b.Stats.SetRefs = rs.Refs
		b.Stats.DedupRatio = rs.DedupRatio()
	}
}

// PointsToGlobal mirrors Analysis.PointsToGlobal for the baseline.
func (b *Baseline) PointsToGlobal(name string) ([]string, error) {
	var obj *ir.Object
	for _, o := range b.Prog.Objects {
		if o.Kind == ir.ObjGlobal && o.Name == name {
			obj = o
			break
		}
	}
	if obj == nil {
		return nil, errNoGlobal(name)
	}
	set := b.Result.ObjAtExit(b.Prog.Main, obj)
	var out []string
	set.ForEach(func(id uint32) {
		out = append(out, b.Prog.Objects[id].Name)
	})
	sort.Strings(out)
	return out, nil
}
