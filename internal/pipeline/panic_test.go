package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// phaseThatPanics provides a slot but panics before writing it.
func phaseThatPanics(name string, val any) Phase {
	return Phase{
		Name:     name,
		Provides: []string{name + ".out"},
		Run: func(ctx context.Context, st *State) error {
			panic(val)
		},
	}
}

func TestPanicContainedAsPhaseError(t *testing.T) {
	m, err := NewManager(phaseThatPanics("boom", "kaput"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), NewState())
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PhaseError", err)
	}
	if !pe.Panic || pe.Phase != "boom" {
		t.Fatalf("PhaseError = %+v, want Panic in boom", pe)
	}
	if !strings.Contains(pe.Error(), "panicked") || !strings.Contains(pe.Error(), "kaput") {
		t.Errorf("Error() = %q, want panic message with value", pe.Error())
	}
	if !bytes.Contains(pe.Stack, []byte("goroutine")) {
		t.Errorf("PhaseError.Stack missing goroutine trace")
	}
	if !ErrPanicked(err) {
		t.Errorf("ErrPanicked(err) = false")
	}
	if rep == nil {
		t.Errorf("nil Report alongside contained panic")
	}
}

// TestPanicInBytesHookContained: the Bytes accounting hook runs under the
// same recover as Run.
func TestPanicInBytesHookContained(t *testing.T) {
	p := Phase{
		Name:     "acct",
		Provides: []string{"out"},
		Run: func(ctx context.Context, st *State) error {
			st.Put("out", 1)
			return nil
		},
		Bytes: func(st *State) uint64 { panic("bytes hook") },
	}
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(context.Background(), NewState())
	var pe *PhaseError
	if !errors.As(err, &pe) || !pe.Panic {
		t.Fatalf("err = %v, want contained panic from Bytes hook", err)
	}
}

// TestPanicDoesNotAbortCompletedPhases: a panic in a leaf phase leaves the
// other phases' slots intact so callers can degrade.
func TestPanicDoesNotAbortCompletedPhases(t *testing.T) {
	ok := Phase{
		Name:     "ok",
		Provides: []string{"x"},
		Run: func(ctx context.Context, st *State) error {
			st.Put("x", 42)
			return nil
		},
	}
	bad := Phase{
		Name:  "bad",
		Needs: []string{"x"},
		Run: func(ctx context.Context, st *State) error {
			panic("late")
		},
	}
	m, err := NewManager(ok, bad)
	if err != nil {
		t.Fatal(err)
	}
	st := NewState()
	_, err = m.Run(context.Background(), st)
	if !ErrPanicked(err) {
		t.Fatalf("err = %v, want panic", err)
	}
	if Get[int](st, "x") != 42 {
		t.Error("completed phase's slot lost after sibling panic")
	}
}

func TestStateDelete(t *testing.T) {
	st := NewState()
	st.Put("x", 7)
	st.Delete("x")
	if Get[int](st, "x") != 0 {
		t.Error("Delete left the slot populated")
	}
}
