// Pass manager: the analysis pipeline as an explicit phase DAG.
//
// FSAM is a staged analysis (paper Figure 2: pre-analysis → thread-oblivious
// def-use → interleaving/value-flow/lock interference → sparse solve), and
// the stage boundary is the unit of engineering this layer exposes: a Phase
// declares the typed State slots it consumes and produces, and the Manager
// topologically schedules the resulting DAG, running phases whose inputs are
// ready concurrently (the interleaving and lock analyses are independent by
// construction and overlap today; race/deadlock/leak clients can join the
// DAG tomorrow). The Manager is also the single place that enforces the
// per-run context deadline and records per-phase wall time and bytes — the
// facade's Stats are read off the Report instead of inline stopwatches.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// Phase is one pipeline stage. Needs and Provides name State slots; the
// Manager derives the DAG edges from them (a phase depends on the phase
// providing each slot it needs). Slots no phase provides must be seeded
// into the State before Run.
type Phase struct {
	Name string
	// Needs lists the slots read by Run. Provides lists the slots Run is
	// obliged to Put; each slot has exactly one provider.
	Needs    []string
	Provides []string
	// Run executes the phase. It must honor ctx cancellation (long fixpoint
	// loops poll at their worklist pop) and communicate only through st.
	Run func(ctx context.Context, st *State) error
	// Bytes optionally reports the resident footprint of the phase's
	// outputs; the Manager records it after Run succeeds.
	Bytes func(st *State) uint64
	// Subphases optionally reports named sub-measurements after Run
	// succeeds (e.g. the thread-modular engine's per-round and per-thread
	// solve times); the Manager records each under "<phase>.<name>", so
	// they ride the Report into phase timing displays without becoming
	// schedulable DAG nodes.
	Subphases func(st *State) []Entry
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

// State is the shared slot store phases communicate through. It is safe for
// concurrent use by phases running in parallel.
type State struct {
	mu    sync.Mutex
	slots map[string]any
}

// NewState returns an empty State.
func NewState() *State { return &State{slots: map[string]any{}} }

// Put stores v under slot.
func (s *State) Put(slot string, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots[slot] = v
}

// Delete removes slot, releasing its value for collection. The degradation
// ladder uses it to drop a failed tier's outputs before retrying a cheaper
// tier under a memory budget.
func (s *State) Delete(slot string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.slots, slot)
}

// Value returns the raw slot value and whether it is present.
func (s *State) Value(slot string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.slots[slot]
	return v, ok
}

// Get returns the slot value as a T. It returns the zero T when the slot is
// absent or holds a nil; it panics when the slot holds a different type
// (a phase wiring bug, not a runtime condition).
func Get[T any](s *State, slot string) T {
	var zero T
	v, ok := s.Value(slot)
	if !ok || v == nil {
		return zero
	}
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("pipeline: slot %q holds %T, want %T", slot, v, zero))
	}
	return t
}

// Report is the Manager's per-run accounting: one Entry per completed
// phase, and per sub-measurement, in completion order (a valid topological
// order of the DAG).
type Report struct {
	mu      sync.Mutex
	entries []Entry
}

func (r *Report) record(e Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, e)
}

// Entries returns the recorded entries in completion order.
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

// Order returns the names of the entries in completion order.
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
	// Engine names the analysis backend whose DAG was running when the
	// phase failed (Manager.Engine; empty when the Manager was not
	// labeled). The degradation ladder runs several engines' DAGs in one
	// logical request, so error attribution needs the engine, not just the
	// phase.
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
// Manager folds it into the PhaseError.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// Manager schedules a phase DAG.
type Manager struct {
	phases []Phase
	// Sequential forces one-phase-at-a-time execution in a deterministic
	// topological order (diagnostics and scheduling-equivalence tests);
	// the default runs every ready phase concurrently.
	Sequential bool
	// Engine labels the run with the analysis backend whose DAG this is;
	// it is carried into any PhaseError for attribution.
	Engine string

	providerOf map[string]int // slot → phase index
	deps       [][]int        // phase → indices of phases it depends on
	external   []string       // slots that must be seeded into the State
}

// NewManager validates the phase set (unique names, single provider per
// slot, acyclic dependencies) and returns a Manager.
func NewManager(phases ...Phase) (*Manager, error) {
	m := &Manager{phases: phases, providerOf: map[string]int{}}
	names := map[string]bool{}
	for i, p := range phases {
		if p.Name == "" || p.Run == nil {
			return nil, fmt.Errorf("pipeline: phase %d needs a name and a Run", i)
		}
		if names[p.Name] {
			return nil, fmt.Errorf("pipeline: duplicate phase %q", p.Name)
		}
		names[p.Name] = true
		for _, slot := range p.Provides {
			if j, dup := m.providerOf[slot]; dup {
				return nil, fmt.Errorf("pipeline: slot %q provided by both %q and %q",
					slot, phases[j].Name, p.Name)
			}
			m.providerOf[slot] = i
		}
	}
	ext := map[string]bool{}
	m.deps = make([][]int, len(phases))
	for i, p := range phases {
		seen := map[int]bool{}
		for _, slot := range p.Needs {
			j, ok := m.providerOf[slot]
			if !ok {
				ext[slot] = true
				continue
			}
			if j == i {
				return nil, fmt.Errorf("pipeline: phase %q needs its own output %q", p.Name, slot)
			}
			if !seen[j] {
				seen[j] = true
				m.deps[i] = append(m.deps[i], j)
			}
		}
		sort.Ints(m.deps[i])
	}
	for slot := range ext {
		m.external = append(m.external, slot)
	}
	sort.Strings(m.external)
	if err := m.checkAcyclic(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkAcyclic rejects dependency cycles (Kahn's algorithm).
func (m *Manager) checkAcyclic() error {
	indeg := make([]int, len(m.phases))
	succs := make([][]int, len(m.phases))
	for i, ds := range m.deps {
		for _, j := range ds {
			succs[j] = append(succs[j], i)
			indeg[i]++
		}
	}
	var ready []int
	for i := range m.phases {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	done := 0
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		done++
		for _, j := range succs[i] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
	}
	if done != len(m.phases) {
		var stuck []string
		for i, p := range m.phases {
			if indeg[i] > 0 {
				stuck = append(stuck, p.Name)
			}
		}
		return fmt.Errorf("pipeline: dependency cycle among phases %v", stuck)
	}
	return nil
}

// Run executes the DAG over st. Phases whose dependencies are satisfied run
// concurrently unless m.Sequential is set. On the first failure (including
// ctx cancellation) no new phases start, in-flight phases are drained, and
// the error is returned as a *PhaseError carrying the completed set. The
// Report covers every phase that completed, even on error.
func (m *Manager) Run(ctx context.Context, st *State) (*Report, error) {
	if st == nil {
		st = NewState()
	}
	rep := &Report{}
	for _, slot := range m.external {
		if _, ok := st.Value(slot); !ok {
			return rep, fmt.Errorf("pipeline: slot %q has no providing phase and is not seeded", slot)
		}
	}

	n := len(m.phases)
	indeg := make([]int, n)
	succs := make([][]int, n)
	for i, ds := range m.deps {
		indeg[i] = len(ds)
		for _, j := range ds {
			succs[j] = append(succs[j], i)
		}
	}
	var ready []int
	for i := n - 1; i >= 0; i-- {
		if indeg[i] == 0 {
			ready = append(ready, i) // reversed; popped back-to-front in order
		}
	}

	type doneMsg struct {
		idx int
		err error
	}
	doneCh := make(chan doneMsg)
	running := 0
	var firstErr *PhaseError

	// run executes one phase with panic containment: a panic anywhere in
	// Run (or the Bytes probe) is recovered into a *panicError instead of
	// unwinding through the Manager's goroutine and killing the process.
	run := func(i int) (msg doneMsg) {
		p := m.phases[i]
		if err := ctx.Err(); err != nil {
			return doneMsg{i, err}
		}
		defer func() {
			if r := recover(); r != nil {
				msg = doneMsg{i, &panicError{val: r, stack: debug.Stack()}}
			}
		}()
		t0 := time.Now()
		if err := p.Run(ctx, st); err != nil {
			return doneMsg{i, err}
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
		return doneMsg{i, nil}
	}

	launch := func() {
		for len(ready) > 0 && firstErr == nil {
			i := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			running++
			go func(i int) { doneCh <- run(i) }(i)
			if m.Sequential {
				// One phase at a time: wait for its message before the next.
				return
			}
		}
	}

	launch()
	for running > 0 {
		msg := <-doneCh
		running--
		if msg.err != nil {
			if firstErr == nil {
				firstErr = &PhaseError{Phase: m.phases[msg.idx].Name, Err: msg.err, Engine: m.Engine}
				var pv *panicError
				if errors.As(msg.err, &pv) {
					firstErr.Panic = true
					firstErr.Stack = pv.stack
				}
			}
			continue
		}
		for _, j := range succs[msg.idx] {
			if indeg[j]--; indeg[j] == 0 {
				ready = append(ready, j)
			}
		}
		launch()
	}
	if firstErr != nil {
		firstErr.Completed = rep.Order()
		return rep, firstErr
	}
	return rep, nil
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
