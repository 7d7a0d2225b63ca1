package fsam

import (
	"repro/internal/solver"
)

// SetTestPhaseWrap installs (or, with nil, removes) a wrapper applied to
// every pipeline phase before scheduling. Fault-containment tests use it
// to inject panics, budget trips, and deadline stalls into specific
// phases by name.
func SetTestPhaseWrap(f func(solver.Phase) solver.Phase) { testPhaseWrap = f }

// Phase names re-exported for the fault-injection tests.
const (
	PhaseSparse    = solver.PhaseSparse
	PhaseDefUse    = solver.PhaseDefUse
	PhaseIL        = solver.PhaseIL
	PhaseCFGFree   = solver.PhaseCFGFree
	PhaseTmod      = solver.PhaseTmod
	PhaseNonSparse = solver.PhaseNonSparse
)
