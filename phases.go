package fsam

// The phase vocabulary lives in internal/solver (shared by the engine
// table's backends); the facade names phases directly as solver.PhaseX.
// This file keeps the manager construction with its test fault-injection
// seam.

import (
	"repro/internal/pipeline"
	"repro/internal/solver"
)

// testPhaseWrap, when non-nil, wraps every phase before scheduling. It is
// the fault-injection seam for the degradation tests (installed via
// export_test.go) and is nil outside test binaries.
var testPhaseWrap func(solver.Phase) solver.Phase

// newManager builds a Manager over phases, honoring the test
// fault-injection hook. engineName labels the run for phase-error
// attribution (PhaseError.Engine).
func newManager(engineName string, phases []solver.Phase) (*pipeline.Manager[solver.State], error) {
	if testPhaseWrap != nil {
		wrapped := make([]solver.Phase, len(phases))
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
