package pipeline

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

// phaseThatPanics panics before writing anything.
func phaseThatPanics(name string, val any) Phase[toy] {
	return Phase[toy]{
		Name: name,
		Run: func(ctx context.Context, st *toy) error {
			panic(val)
		},
	}
}

func TestPanicContainedAsPhaseError(t *testing.T) {
	m, err := NewManager(phaseThatPanics("boom", "kaput"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), &toy{})
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
	if !strings.Contains(pe.Error(), "panicked: kaput") || strings.Count(pe.Error(), "panic") != 1 {
		t.Errorf("Error() = %q, want the word panic once, then the value", pe.Error())
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
	p := Phase[toy]{
		Name:  "acct",
		Run:   func(ctx context.Context, st *toy) error { return nil },
		Bytes: func(st *toy) uint64 { panic("bytes hook") },
	}
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(context.Background(), &toy{})
	var pe *PhaseError
	if !errors.As(err, &pe) || !pe.Panic {
		t.Fatalf("err = %v, want contained panic from Bytes hook", err)
	}
}

// TestPanicDoesNotAbortCompletedPhases: a panic in a later phase leaves
// what the completed phases wrote intact so callers can degrade.
func TestPanicDoesNotAbortCompletedPhases(t *testing.T) {
	ok := Phase[toy]{
		Name: "ok",
		Run: func(ctx context.Context, st *toy) error {
			st.x = 42
			return nil
		},
	}
	bad := Phase[toy]{
		Name: "bad",
		Run: func(ctx context.Context, st *toy) error {
			panic("late")
		},
	}
	m, err := NewManager(ok, bad)
	if err != nil {
		t.Fatal(err)
	}
	st := &toy{}
	_, err = m.Run(context.Background(), st)
	if !ErrPanicked(err) {
		t.Fatalf("err = %v, want panic", err)
	}
	if st.x != 42 {
		t.Error("completed phase's output lost after a later phase panicked")
	}
}
