package main

import "testing"

func TestExperimentNamesFromTable(t *testing.T) {
	got := experimentNames()
	want := "e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, a2, a3, all"
	if got != want {
		t.Errorf("experimentNames() = %q, want %q", got, want)
	}
}
