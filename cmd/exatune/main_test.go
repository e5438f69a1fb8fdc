package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"exadla/internal/autotune"
)

func TestRunWritesWinner(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tuning.json")
	var stdout strings.Builder
	if err := run([]string{"-op", "cholesky", "-n", "64", "-nb", "16,32", "-reps", "1", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	table, err := autotune.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	key := autotune.Key("cholesky", 64, runtime.GOMAXPROCS(0))
	nb, ok := table.Lookup(key)
	if !ok || (nb != 16 && nb != 32) {
		t.Fatalf("table holds %s = %d (present %v), want the winning nb of {16, 32}", key, nb, ok)
	}
	if want := fmt.Sprintf("%s → nb=%d", key, nb); !strings.Contains(stdout.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, stdout.String())
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-op", "svd", "-n", "64", "-nb", "16"},
		{"-op", "cholesky", "-n", "64", "-nb", "16,x"},
	} {
		var stdout strings.Builder
		if err := run(args, &stdout); err == nil {
			t.Errorf("run(%q) returned nil, want an error", args)
		}
	}
}
