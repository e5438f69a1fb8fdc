package main

import (
	"math"
	"testing"
)

func TestExperimentNamesFromTable(t *testing.T) {
	got := experimentNames()
	want := "e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, a2, a3, faults, all"
	if got != want {
		t.Errorf("experimentNames() = %q, want %q", got, want)
	}
}

// TestFirstBitDiffSeesSignedZero checks the fault tables' bitwise verdict
// compares bits, not values: −0 against +0 is a difference, NaN against
// the same NaN is not.
func TestFirstBitDiffSeesSignedZero(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		got, want []float64
		at        int
	}{
		{[]float64{1, 0, 2}, []float64{1, 0, 2}, -1},
		{[]float64{1, math.Copysign(0, -1), 2}, []float64{1, 0, 2}, 1},
		{[]float64{nan}, []float64{nan}, -1},
		{[]float64{1, 2}, []float64{1, 2, 3}, 2},
	} {
		if at := firstBitDiff(tc.got, tc.want); at != tc.at {
			t.Errorf("firstBitDiff(%v, %v) = %d, want %d", tc.got, tc.want, at, tc.at)
		}
	}
}
