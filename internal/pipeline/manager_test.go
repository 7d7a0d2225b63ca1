package pipeline

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// toy is the state the manager tests' phases communicate through.
type toy struct{ x, y, z int }

// chain returns phases a→b→c, each reading the field the one before it
// wrote, in list order.
func chain(trace *[]string) []Phase[toy] {
	mk := func(name string, in func(*toy) int, out func(*toy) *int) Phase[toy] {
		return Phase[toy]{
			Name: name,
			Run: func(ctx context.Context, st *toy) error {
				if in != nil && in(st) == 0 {
					return errors.New(name + ": input missing")
				}
				*trace = append(*trace, name)
				*out(st) = 1
				return nil
			},
		}
	}
	return []Phase[toy]{
		mk("a", nil, func(st *toy) *int { return &st.x }),
		mk("b", func(st *toy) int { return st.x }, func(st *toy) *int { return &st.y }),
		mk("c", func(st *toy) int { return st.y }, func(st *toy) *int { return &st.z }),
	}
}

// TestRunsInListOrder: phases run, and are reported, in list order; the
// same phases listed out of dependency order run in that order too, so the
// first one finds its input missing.
func TestRunsInListOrder(t *testing.T) {
	var trace []string
	phases := chain(&trace)
	m, err := NewManager(phases...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), &toy{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if !slices.Equal(rep.Order(), want) {
		t.Errorf("order = %v, want %v", rep.Order(), want)
	}
	if !slices.Equal(trace, want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
	m, err = NewManager(phases[2], phases[0], phases[1])
	if err != nil {
		t.Fatal(err)
	}
	var pe *PhaseError
	if _, err := m.Run(context.Background(), &toy{}); !errors.As(err, &pe) || pe.Phase != "c" {
		t.Errorf("out-of-order run: err = %v, want phase c to fail first", err)
	}
}

func TestRunCancellationPhaseError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	first := Phase[toy]{
		Name: "first",
		Run: func(ctx context.Context, st *toy) error {
			st.x = 1
			return nil
		},
	}
	blocker := Phase[toy]{
		Name: "blocker",
		Run: func(ctx context.Context, st *toy) error {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		},
	}
	m, err := NewManager(first, blocker)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(ctx, &toy{})
	var pe *PhaseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PhaseError", err)
	}
	if pe.Phase != "blocker" {
		t.Errorf("failed phase = %q", pe.Phase)
	}
	if len(pe.Completed) != 1 || pe.Completed[0] != "first" {
		t.Errorf("completed = %v", pe.Completed)
	}
	if !ErrCancelled(err) {
		t.Error("ErrCancelled should see through PhaseError")
	}
	if es := rep.Entries(); len(es) != 1 || es[0].Name != "first" || es[0].Time <= 0 {
		t.Errorf("report entries = %+v, want the completed phase", es)
	}
}

func TestReportAccounting(t *testing.T) {
	mk := func(name string, bytes uint64) Phase[toy] {
		return Phase[toy]{
			Name:  name,
			Run:   func(ctx context.Context, st *toy) error { return nil },
			Bytes: func(st *toy) uint64 { return bytes },
		}
	}
	m, err := NewManager(mk("u", 100), mk("v", 23))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), &toy{})
	if err != nil {
		t.Fatal(err)
	}
	bytes := map[string]uint64{}
	for _, e := range rep.Entries() {
		bytes[e.Name] = e.Bytes
	}
	if bytes["u"] != 100 || bytes["v"] != 23 || rep.TotalBytes() != 123 {
		t.Errorf("bytes: u=%d v=%d total=%d", bytes["u"], bytes["v"], rep.TotalBytes())
	}
}

func TestManagerValidation(t *testing.T) {
	noop := func(ctx context.Context, st *toy) error { return nil }
	cases := []struct {
		name   string
		phases []Phase[toy]
	}{
		{"unnamed", []Phase[toy]{{Run: noop}}},
		{"no run", []Phase[toy]{{Name: "a"}}},
		{"duplicate name", []Phase[toy]{
			{Name: "a", Run: noop}, {Name: "a", Run: noop}}},
	}
	for _, tc := range cases {
		if _, err := NewManager(tc.phases...); err == nil {
			t.Errorf("%s: NewManager accepted an invalid phase list", tc.name)
		}
	}
}
