package pipeline

import (
	"context"
	"errors"
	"slices"
	"testing"
)

// chain returns phases a→b→c communicating through slots, in list order.
func chain(trace *[]string) []Phase {
	mk := func(name, need, give string) Phase {
		p := Phase{
			Name:     name,
			Provides: []string{give},
			Run: func(ctx context.Context, st *State) error {
				if need != "" {
					if Get[int](st, need) == 0 {
						return errors.New(name + ": input missing")
					}
				}
				*trace = append(*trace, name)
				st.Put(give, 1)
				return nil
			},
		}
		if need != "" {
			p.Needs = []string{need}
		}
		return p
	}
	return []Phase{mk("a", "", "x"), mk("b", "x", "y"), mk("c", "y", "z")}
}

// TestRunsInListOrder: phases run, and are reported, in list order; the
// same phases listed out of dependency order are a construction error.
func TestRunsInListOrder(t *testing.T) {
	var trace []string
	phases := chain(&trace)
	m, err := NewManager(phases...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), NewState())
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
	if _, err := NewManager(phases[2], phases[0], phases[1]); err == nil {
		t.Error("NewManager accepted c before the phase providing its input")
	}
}

func TestRunCancellationPhaseError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	first := Phase{
		Name:     "first",
		Provides: []string{"x"},
		Run: func(ctx context.Context, st *State) error {
			st.Put("x", 1)
			return nil
		},
	}
	blocker := Phase{
		Name:  "blocker",
		Needs: []string{"x"},
		Run: func(ctx context.Context, st *State) error {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		},
	}
	m, err := NewManager(first, blocker)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(ctx, NewState())
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
	mk := func(name string, bytes uint64) Phase {
		return Phase{
			Name:     name,
			Provides: []string{name},
			Run: func(ctx context.Context, st *State) error {
				st.Put(name, 1)
				return nil
			},
			Bytes: func(st *State) uint64 { return bytes },
		}
	}
	m, err := NewManager(mk("u", 100), mk("v", 23))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background(), NewState())
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
	noop := func(ctx context.Context, st *State) error { return nil }
	cases := []struct {
		name   string
		phases []Phase
	}{
		{"unnamed", []Phase{{Run: noop}}},
		{"no run", []Phase{{Name: "a"}}},
		{"duplicate name", []Phase{
			{Name: "a", Run: noop}, {Name: "a", Run: noop}}},
		{"duplicate provider", []Phase{
			{Name: "a", Provides: []string{"s"}, Run: noop},
			{Name: "b", Provides: []string{"s"}, Run: noop}}},
		{"self need", []Phase{
			{Name: "a", Needs: []string{"s"}, Provides: []string{"s"}, Run: noop}}},
		{"cycle", []Phase{
			{Name: "a", Needs: []string{"y"}, Provides: []string{"x"}, Run: noop},
			{Name: "b", Needs: []string{"x"}, Provides: []string{"y"}, Run: noop}}},
		{"provider listed later", []Phase{
			{Name: "a", Needs: []string{"s"}, Run: noop},
			{Name: "b", Provides: []string{"s"}, Run: noop}}},
	}
	for _, tc := range cases {
		if _, err := NewManager(tc.phases...); err == nil {
			t.Errorf("%s: NewManager accepted an invalid phase list", tc.name)
		}
	}
}

func TestUnseededExternalSlot(t *testing.T) {
	p := Phase{Name: "a", Needs: []string{"outside"},
		Run: func(ctx context.Context, st *State) error { return nil }}
	m, err := NewManager(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), NewState()); err == nil {
		t.Fatal("Run accepted a missing external slot")
	}
	st := NewState()
	st.Put("outside", 7)
	if _, err := m.Run(context.Background(), st); err != nil {
		t.Fatal(err)
	}
}

func TestGetZeroAndTypeMismatch(t *testing.T) {
	st := NewState()
	if got := Get[int](st, "absent"); got != 0 {
		t.Errorf("absent slot = %d", got)
	}
	st.Put("n", 42)
	if got := Get[int](st, "n"); got != 42 {
		t.Errorf("n = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("type mismatch should panic")
		}
	}()
	Get[string](st, "n")
}
