// Package solver is the fixed engine table of this repository's pointer
// analyses. Every analysis — the sparse flow-sensitive FSAM reproduction,
// the thread-modular engine, the CFG-free flow-sensitive analysis, the
// Andersen pre-analysis, and the NONSPARSE baseline — is expressed as a
// Solver: a named backend that contributes a phase list to the shared pass
// manager (internal/pipeline) and extracts a uniform points-to view from
// the completed pipeline State.
//
// The table replaces the hand-built phase switches the facade used to
// carry: the facade asks Lookup(cfg.Engine) for the backend, runs
// Solver.Phases, and reads Solver.Result — and the precision-degradation
// ladder walks Ladder(), the on-ladder prefix of the same table.
//
// Config and Precision live here (the public fsam package aliases them)
// because both the backends and the facade key off them: Config selects a
// backend by name through the Engine field, and Precision orders the
// ladder's rungs.
package solver

import (
	"fmt"

	"repro/internal/callgraph"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/pts"
	"repro/internal/tmod"
)

// Config selects the analysis engine, its variants, and resource budgets.
// It is also the wire form of fsamd's analyze body: the json tags are the
// wire names, and NoDegrade is hidden from the wire, so every served
// request runs with the degradation ladder. The user-settable fields are
// declared once, in options.go.
type Config struct {
	// Engine names the analysis backend ("fsam", "tmod", "cfgfree",
	// "andersen", "nonsparse"); empty selects the default sparse FSAM
	// engine. Unknown names fail the run before any phase is scheduled.
	Engine string `json:"engine,omitempty"`
	// MemModel selects the memory consistency model ("sc", "tso", "pso";
	// empty means DefaultMemModel). Only the thread-modular engine's
	// interference gate consumes it today, but it is part of every
	// engine's canonical configuration — and cache identity — so a future
	// consumer cannot silently alias results across models. Unknown names
	// fail the run before any phase is scheduled.
	MemModel string `json:"memmodel,omitempty"`
	// NoInterleaving replaces the flow- and context-sensitive interleaving
	// analysis with the coarse procedure-level PCG MHP (Figure 12).
	NoInterleaving bool `json:"no_interleaving,omitempty"`
	// NoValueFlow disables the aliasing premise of [THREAD-VF] (Figure 12).
	NoValueFlow bool `json:"no_valueflow,omitempty"`
	// NoLock disables non-interference filtering (Figure 12).
	NoLock bool `json:"no_lock,omitempty"`
	// CtxDepth bounds call-string contexts (<=0 uses the default).
	CtxDepth int `json:"ctx_depth,omitempty"`
	// MemBudgetBytes is a soft budget on the live process heap, polled by
	// every post-pre-analysis fixpoint loop (the pre-analysis is exempt:
	// it is the degradation ladder's safety net). A trip degrades the
	// result down the ladder instead of failing; 0 means unlimited.
	MemBudgetBytes uint64 `json:"membudget,omitempty"`
	// StepLimit bounds the worklist pops of each post-pre-analysis
	// fixpoint loop independently; a trip degrades like a memory trip.
	// 0 means unlimited.
	StepLimit int64 `json:"steplimit,omitempty"`
	// NoDegrade disables the precision-degradation ladder: any phase
	// failure (panic, deadline, budget) surfaces as an error alongside
	// the partial Analysis, as in the pre-ladder API.
	NoDegrade bool `json:"-"`
	// EscapePrune gates the thread-escape pruning oracle ("on" or "off";
	// empty means on). When on, the interference-bearing engines skip
	// work for objects the escape analysis proves non-shared: fsam skips
	// interference value-flow edge construction, tmod skips interference
	// publication, a degraded cfgfree rung skips mutual-concurrency reach
	// admission, and the race detector skips pair enumeration. Pruned and
	// unpruned results are identical by construction; the knob is the
	// escape hatch that lets the differential gate prove it.
	EscapePrune string `json:"escapeprune,omitempty"`
}

// DefaultEngine is the backend Normalize selects when Config.Engine is
// empty: the full sparse flow-sensitive FSAM analysis.
const DefaultEngine = "fsam"

// DefaultMemModel is the memory model Normalize selects when
// Config.MemModel is empty: sequential consistency, the model the paper's
// interleaving semantics assumes.
const DefaultMemModel = tmod.MemModelSC

// MemModels lists the supported memory models, most to least constrained
// (sc, tso, pso).
func MemModels() []string { return tmod.MemModels() }

// EscapePruneOn is the Config.EscapePrune value Normalize selects when the
// field is empty: thread-escape pruning enabled.
const EscapePruneOn = "on"

// EscapePruneOff disables the thread-escape pruning oracle (the
// `-escapeprune=off` escape hatch and the differential gate's baseline).
const EscapePruneOff = "off"

// escapePruneModes lists the supported Config.EscapePrune values.
func escapePruneModes() []string { return []string{EscapePruneOn, EscapePruneOff} }

// Normalize returns cfg with implementation defaults made explicit and
// out-of-range values clamped, so two Configs that would drive identical
// analyses compare (and render) identically. It is the shared
// canonicalization used by the CLIs and by the analysis service's
// content-addressed cache key — keeping them on one helper is what stops
// CLI behavior and cache identity from drifting apart.
func (c Config) Normalize() Config {
	if c.Engine == "" {
		c.Engine = DefaultEngine
	}
	if c.MemModel == "" {
		c.MemModel = DefaultMemModel
	}
	if c.CtxDepth <= 0 {
		c.CtxDepth = callgraph.DefaultMaxDepth
	}
	if c.StepLimit < 0 {
		c.StepLimit = 0
	}
	if c.EscapePrune == "" {
		c.EscapePrune = EscapePruneOn
	}
	return c
}

// Canonical renders the normalized Config as a stable, human-readable
// key fragment. Every field that can change analysis results or resource
// behavior appears — the Engine first, so two requests that differ only in
// backend can never collide in a content-addressed cache; adding a Config
// field without extending Canonical would silently alias distinct
// configurations, so keep the two in lockstep. The constant "seq=0" holds
// the place of a removed scheduling field, so that content addresses and
// ProgKeys stay what they were.
func (c Config) Canonical() string {
	n := c.Normalize()
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	return fmt.Sprintf("eng=%s mm=%s il=%d vf=%d lk=%d ctx=%d seq=0 mem=%d steps=%d nodeg=%d esc=%s",
		n.Engine, n.MemModel, b2i(n.NoInterleaving), b2i(n.NoValueFlow), b2i(n.NoLock),
		n.CtxDepth, n.MemBudgetBytes, n.StepLimit, b2i(n.NoDegrade), n.EscapePrune)
}

// Precision labels the tier of the result an analysis carries, in
// ascending precision. The degradation ladder guarantees every analysis
// of a compilable program lands on at least PrecisionAndersenOnly: the
// pipeline is staged so the cheap, sound Andersen pre-analysis always has
// run before anything expensive can fail.
type Precision int

const (
	// PrecisionNone: no usable result (the program did not compile or the
	// pre-analysis itself failed).
	PrecisionNone Precision = iota
	// PrecisionAndersenOnly: only the flow-insensitive pre-analysis
	// completed; points-to queries answer from it.
	PrecisionAndersenOnly
	// PrecisionCFGFreeFS: the CFG-free flow-sensitive tier — Andersen-style
	// propagation whose memory flows are restricted to store→load pairs
	// admitted by a one-shot control-flow/concurrency reachability summary.
	// Sounder orderings than Andersen, cheaper than memory-SSA tiers.
	PrecisionCFGFreeFS
	// PrecisionThreadModularFS: per-thread sparse flow-sensitive solves
	// composed through a global interference environment iterated to
	// fixpoint (internal/tmod). Sound for cross-thread flows under the
	// configured memory model, coarser than the statement-level
	// interleaving reasoning of the full FSAM tier.
	PrecisionThreadModularFS
	// PrecisionSparseFS: the full FSAM result (under whatever ablations
	// Config selected).
	PrecisionSparseFS
)

// precisionNames is the one name table behind String and ParsePrecision,
// indexed by tier. Precision crosses the wire only as these strings.
var precisionNames = [...]string{
	PrecisionNone:            "none",
	PrecisionAndersenOnly:    "andersen-only",
	PrecisionCFGFreeFS:       "cfgfree-fs",
	PrecisionThreadModularFS: "thread-modular-fs",
	PrecisionSparseFS:        "sparse-fs",
}

func (p Precision) String() string {
	if p >= 0 && int(p) < len(precisionNames) {
		return precisionNames[p]
	}
	return fmt.Sprintf("Precision(%d)", int(p))
}

// ParsePrecision maps a Precision.String() rendering back onto the tier
// (PrecisionNone and false for unknown strings). Consumers that fold
// serialized tiers — the bench harness' exit-code computation, log
// analysis — parse here instead of re-hardcoding the strings.
func ParsePrecision(s string) (Precision, bool) {
	for p, name := range precisionNames {
		if name == s {
			return Precision(p), true
		}
	}
	return PrecisionNone, false
}

// PTSView is the uniform points-to query surface every backend extracts
// from its result, so the facade's queries and the harness' precision
// metrics are engine-independent.
type PTSView interface {
	// PointsToVar returns the points-to set of a top-level SSA variable (never
	// nil). Top-level variables are in SSA form, so one set per variable is
	// a flow-sensitive answer for every engine that orders memory flows.
	PointsToVar(v *ir.Var) *pts.Set
	// ObjAtExit returns the objects obj may hold at the exit of main —
	// the paper's "final" answer. Flow-insensitive engines (Andersen,
	// cfgfree's object summaries) answer with their single per-object set.
	ObjAtExit(main *ir.Function, obj *ir.Object) *pts.Set
}

// Solver is one analysis backend of the engine table.
type Solver interface {
	// Name is the engine's table key (Config.Engine).
	Name() string
	// Tier is the precision the engine's successful result carries, and
	// its position on the degradation ladder.
	Tier() Precision
	// Phases returns the engine's phase list for cfg, excluding the compile
	// phase (the facade prepends it on the source path). The first phase
	// needs SlotProg; the pre-analysis phase is shared by every engine.
	Phases(cfg Config) []pipeline.Phase
	// Result extracts the engine's points-to view from a pipeline State in
	// which the engine's phases completed; nil when the State does not
	// hold the engine's outputs.
	Result(st *pipeline.State) PTSView
	// OnLadder reports whether the engine serves as a degradation rung.
	// Off-ladder engines (the NONSPARSE baseline) can still be selected
	// explicitly and still degrade downward through on-ladder rungs.
	OnLadder() bool
}

// Lookup returns the engine named name, or nil.
func Lookup(name string) Solver {
	for _, s := range engines {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// Names lists the engines in table order: the ladder's rungs, most precise
// first, then the off-ladder nonsparse baseline.
func Names() []string {
	out := make([]string, len(engines))
	for i, s := range engines {
		out[i] = s.Name()
	}
	return out
}

// Ladder returns the on-ladder engines in table order, which is descending
// Tier order: the degradation sequence sparse FS → thread-modular →
// cfgfree → Andersen-only. The facade walks the returned slice, attempting
// each rung strictly below the failed engine's tier.
func Ladder() []Solver {
	var out []Solver
	for _, s := range engines {
		if s.OnLadder() {
			out = append(out, s)
		}
	}
	return out
}
