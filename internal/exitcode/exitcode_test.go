package exitcode

import (
	"testing"

	fsam "repro"
)

// TestPinnedCodes freezes every tier's code: scripts match on them, so no
// tier may ever be renumbered, and 3 (the removed thread-oblivious rung)
// stays unassigned.
func TestPinnedCodes(t *testing.T) {
	cases := []struct {
		tier fsam.Precision
		want int
	}{
		{fsam.PrecisionSparseFS, OK},
		{fsam.PrecisionAndersenOnly, 4},
		{fsam.PrecisionCFGFreeFS, 5},
		{fsam.PrecisionThreadModularFS, 6},
		{fsam.PrecisionNone, Failure},
	}
	for _, c := range cases {
		if got := ForPrecision(c.tier); got != c.want {
			t.Errorf("ForPrecision(%v) = %d, want %d", c.tier, got, c.want)
		}
	}
}

// TestRegistryAssignedCodes: the tier → code table gives tmod, the first
// rung added after the original codes, 6, and no two ladder tiers share a
// code or take the reserved 3.
func TestRegistryAssignedCodes(t *testing.T) {
	if got := ForPrecision(fsam.PrecisionThreadModularFS); got != 6 {
		t.Errorf("ForPrecision(thread-modular-fs) = %d, want 6", got)
	}
	seen := map[int]fsam.Precision{}
	for _, tier := range fsam.LadderTiers() {
		c := ForPrecision(tier)
		if c == 3 {
			t.Errorf("ForPrecision(%v) = 3, a reserved code", tier)
		}
		if prev, dup := seen[c]; dup {
			t.Errorf("code %d assigned to both %v and %v", c, prev, tier)
		}
		seen[c] = tier
	}
}

func TestIsDegraded(t *testing.T) {
	for _, c := range []int{OK, Failure, Usage, 3} {
		if IsDegraded(c) {
			t.Errorf("IsDegraded(%d) = true, want false", c)
		}
	}
	for _, c := range []int{DegradedAndersen, DegradedCFGFree, DegradedThreadModular} {
		if !IsDegraded(c) {
			t.Errorf("IsDegraded(%d) = false, want true", c)
		}
	}
}

// TestWorstOrdering: Failure > Usage > Andersen > CFGFree > tmod > OK,
// and Worst is symmetric.
func TestWorstOrdering(t *testing.T) {
	order := []int{Failure, Usage, DegradedAndersen, DegradedCFGFree,
		DegradedThreadModular, OK}
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
