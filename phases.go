package fsam

// The phase vocabulary lives in internal/solver (shared by the engine
// table's backends); the facade names slots and phases directly as
// solver.SlotX / solver.PhaseX. This file keeps the manager construction
// with its test fault-injection seam.

import (
	"repro/internal/pipeline"
)

// testPhaseWrap, when non-nil, wraps every phase before scheduling. It is
// the fault-injection seam for the degradation-ladder tests (installed via
// export_test.go) and is nil outside test binaries.
var testPhaseWrap func(pipeline.Phase) pipeline.Phase

// newManager builds a Manager over phases, honoring the test
// fault-injection hook. engineName labels the run for phase-error
// attribution (PhaseError.Engine).
func newManager(engineName string, phases []pipeline.Phase) (*pipeline.Manager, error) {
	if testPhaseWrap != nil {
		wrapped := make([]pipeline.Phase, len(phases))
		for i, p := range phases {
			wrapped[i] = testPhaseWrap(p)
		}
		phases = wrapped
	}
	m, err := pipeline.NewManager(phases...)
	if err != nil {
		return nil, err
	}
	m.Engine = engineName
	return m, nil
}

// prunePhases drops phases whose every provided slot is already populated
// in st — the degradation ladder's way of not re-running the pre-analysis
// or thread model a failed tier already completed.
func prunePhases(phases []pipeline.Phase, st *pipeline.State) []pipeline.Phase {
	var out []pipeline.Phase
	for _, p := range phases {
		done := len(p.Provides) > 0
		for _, slot := range p.Provides {
			if v, ok := st.Value(slot); !ok || v == nil {
				done = false
				break
			}
		}
		if !done {
			out = append(out, p)
		}
	}
	return out
}
