package exitcode

import (
	"testing"

	fsam "repro"
)

// TestPinnedCodes freezes every tier's code: scripts match on them, so no
// tier may ever be renumbered. The middle tiers are never a degraded
// run's tier, and their old codes 5 and 6 stay unassigned.
func TestPinnedCodes(t *testing.T) {
	cases := []struct {
		tier fsam.Precision
		want int
	}{
		{fsam.PrecisionSparseFS, OK},
		{fsam.PrecisionAndersenOnly, 4},
		{fsam.PrecisionCFGFreeFS, Failure},
		{fsam.PrecisionThreadModularFS, Failure},
		{fsam.PrecisionNone, Failure},
	}
	for _, c := range cases {
		if got := ForPrecision(c.tier); got != c.want {
			t.Errorf("ForPrecision(%v) = %d, want %d", c.tier, got, c.want)
		}
	}
}

// TestRegistryAssignedCodes: no two tiers share a code, and no tier
// takes a reserved code (3, 5, 6: the removed fallback tiers').
func TestRegistryAssignedCodes(t *testing.T) {
	seen := map[int]fsam.Precision{}
	for _, r := range ladder {
		switch r.code {
		case 3, 5, 6:
			t.Errorf("tier %v has the reserved code %d", r.tier, r.code)
		}
		if prev, dup := seen[r.code]; dup {
			t.Errorf("code %d assigned to both %v and %v", r.code, prev, r.tier)
		}
		seen[r.code] = r.tier
	}
}

func TestIsDegraded(t *testing.T) {
	for _, c := range []int{OK, Failure, Usage, 3, 5, 6} {
		if IsDegraded(c) {
			t.Errorf("IsDegraded(%d) = true, want false", c)
		}
	}
	if !IsDegraded(DegradedAndersen) {
		t.Errorf("IsDegraded(%d) = false, want true", DegradedAndersen)
	}
}

// TestWorstOrdering: Failure > Usage > Andersen > OK, and Worst is
// symmetric.
func TestWorstOrdering(t *testing.T) {
	order := []int{Failure, Usage, DegradedAndersen, OK}
	for i, hi := range order {
		for _, lo := range order[i:] {
			if got := Worst(hi, lo); got != hi {
				t.Errorf("Worst(%d, %d) = %d, want %d", hi, lo, got, hi)
			}
			if got := Worst(lo, hi); got != hi {
				t.Errorf("Worst(%d, %d) = %d, want %d", lo, hi, got, hi)
			}
		}
	}
}
