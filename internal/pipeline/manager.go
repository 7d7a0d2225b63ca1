// Pass manager: the analysis pipeline as an ordered phase list.
//
// FSAM is a staged analysis (paper Figure 2: pre-analysis → thread model →
// interleaving/lock interference → def-use → sparse solve), and the stage
// boundary is the unit of engineering this layer exposes: a Phase reads
// and writes the fields of one typed state struct (the solver package's
// State for the analysis engines), and the Manager runs the phases one
// after another in list order, so list order is dependency order.
// The Manager is also the single place that enforces the per-run context
// deadline and records per-phase wall time and bytes — the facade's Stats
// are read off the Report instead of inline stopwatches, and because
// phases never overlap, the top-level entries add up to the time the run
// spent in its phases.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// Phase is one pipeline stage over a run's state S. Phases communicate
// only through the fields of S they read and write; the list order is the
// dependency order, so a phase may read whatever an earlier phase wrote.
type Phase[S any] struct {
	Name string
	// Run executes the phase. It must honor ctx cancellation (long fixpoint
	// loops poll at their worklist pop).
	Run func(ctx context.Context, st *S) error
	// Bytes optionally reports the resident footprint of the phase's
	// outputs; the Manager records it after Run succeeds.
	Bytes func(st *S) uint64
	// Subphases optionally reports named sub-measurements after Run
	// succeeds (e.g. the thread-modular engine's per-round and per-thread
	// solve times); the Manager records each under "<phase>.<name>", so
	// they ride the Report into phase timing displays without becoming
	// phases of their own.
	Subphases func(st *S) []Entry
}

// Entry is one Report line: a completed phase's wall time and the
// footprint of its outputs, or a named sub-measurement of a phase (see
// Phase.Subphases), whose time is contained in its parent's.
type Entry struct {
	Name  string
	Time  time.Duration
	Bytes uint64
}

// Subphase reports whether e is a sub-measurement ("<phase>.<name>")
// rather than a phase of its own.
func (e Entry) Subphase() bool { return strings.Contains(e.Name, ".") }

// Report is the Manager's per-run accounting: one Entry per completed
// phase, and per sub-measurement, in run order: the phase list's order,
// each phase followed by its sub-measurements.
type Report struct {
	mu      sync.Mutex
	entries []Entry
}

func (r *Report) record(e Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

// Entries returns the recorded entries in run order.
func (r *Report) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Entry(nil), r.entries...)
}

// TotalBytes sums the recorded footprint over all entries.
func (r *Report) TotalBytes() uint64 {
	var total uint64
	for _, e := range r.Entries() {
		total += e.Bytes
	}
	return total
}

// Order returns the names of the entries in run order.
func (r *Report) Order() []string {
	var out []string
	for _, e := range r.Entries() {
		out = append(out, e.Name)
	}
	return out
}

// PhaseError reports a failed (or cancelled) phase together with the
// phases that did complete, so callers can expose partial progress. A
// recovered phase panic sets Panic and carries the goroutine stack —
// fault containment: no phase, however broken, takes the process down.
type PhaseError struct {
	Phase     string
	Completed []string
	Err       error
	// Engine names the analysis backend whose phases were running when the
	// phase failed (Manager.Engine; empty when the Manager was not
	// labeled). Engines share phase names (every one runs preanalysis),
	// so error attribution needs the engine, not just the phase.
	Engine string
	// Panic is set when Err is a recovered panic; Stack then holds the
	// panicking goroutine's stack trace.
	Panic bool
	Stack []byte
}

func (e *PhaseError) Error() string {
	eng := ""
	if e.Engine != "" {
		eng = fmt.Sprintf(" [engine %s]", e.Engine)
	}
	if e.Panic {
		return fmt.Sprintf("pipeline: phase %q%s panicked: %v (completed: %v)", e.Phase, eng, e.Err, e.Completed)
	}
	return fmt.Sprintf("pipeline: phase %q%s: %v (completed: %v)", e.Phase, eng, e.Err, e.Completed)
}

func (e *PhaseError) Unwrap() error { return e.Err }

// panicError carries a recovered phase panic value and its stack until the
// Manager folds it into the PhaseError. Its message is the bare value: the
// PhaseError and the degraded reason already say "panicked".
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprint(e.val) }

// Manager runs an ordered phase list over a state S.
type Manager[S any] struct {
	phases []Phase[S]
	// Engine labels the run with the analysis backend whose phases these
	// are; it is carried into any PhaseError for attribution.
	Engine string
}

// NewManager validates the phase list and returns a Manager that runs it
// in list order: every phase needs a name and a Run, and names are unique.
func NewManager[S any](phases ...Phase[S]) (*Manager[S], error) {
	names := map[string]bool{}
	for i, p := range phases {
		if p.Name == "" || p.Run == nil {
			return nil, fmt.Errorf("pipeline: phase %d needs a name and a Run", i)
		}
		if names[p.Name] {
			return nil, fmt.Errorf("pipeline: duplicate phase %q", p.Name)
		}
		names[p.Name] = true
	}
	return &Manager[S]{phases: phases}, nil
}

// Run executes the phases over st in list order. On the first failure
// (including ctx cancellation, checked before each phase) no further phase
// starts, and the error is returned as a *PhaseError carrying the
// completed set. The Report covers every phase that completed, even on
// error.
func (m *Manager[S]) Run(ctx context.Context, st *S) (*Report, error) {
	rep := &Report{}
	for _, p := range m.phases {
		if err := runPhase(ctx, p, st, rep); err != nil {
			pe := &PhaseError{Phase: p.Name, Completed: rep.Order(), Err: err, Engine: m.Engine}
			var pv *panicError
			if errors.As(err, &pv) {
				pe.Panic = true
				pe.Stack = pv.stack
			}
			return rep, pe
		}
	}
	return rep, nil
}

// runPhase executes one phase with panic containment: a panic anywhere in
// Run (or the Bytes and Subphases probes) is recovered into a *panicError
// instead of unwinding through the Manager and killing the process.
func runPhase[S any](ctx context.Context, p Phase[S], st *S, rep *Report) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	t0 := time.Now()
	if err := p.Run(ctx, st); err != nil {
		return err
	}
	var b uint64
	if p.Bytes != nil {
		b = p.Bytes(st)
	}
	rep.record(Entry{p.Name, time.Since(t0), b})
	if p.Subphases != nil {
		for _, sp := range p.Subphases(st) {
			sp.Name = p.Name + "." + sp.Name
			rep.record(sp)
		}
	}
	return nil
}

// ErrCancelled reports whether err stems from context cancellation or
// deadline expiry (possibly wrapped in a *PhaseError).
func ErrCancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ErrOverBudget reports whether err stems from a resource-budget trip
// (engine.ErrOverBudget, possibly wrapped in a *PhaseError).
func ErrOverBudget(err error) bool {
	return errors.Is(err, engine.ErrOverBudget)
}

// ErrPanicked reports whether err is (or wraps) a recovered phase panic.
func ErrPanicked(err error) bool {
	var pe *PhaseError
	if errors.As(err, &pe) {
		return pe.Panic
	}
	var pv *panicError
	return errors.As(err, &pv)
}
