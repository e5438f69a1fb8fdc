package main

import (
	"strings"
	"testing"
)

// TestRunServeCheckpointResume runs a coordinator with no workers, which
// factors on its local fallback and verifies bitwise, then restarts the
// job from the checkpoints it left behind.
func TestRunServeCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	var stdout strings.Builder
	if err := run([]string{"-serve", "127.0.0.1:0", "-n", "96", "-nb", "16", "-verify", "-ckpt", dir, "-ckpt-every", "2"}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 checkpoints", "verify: bitwise identical"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("first run's report lacks %q:\n%s", want, stdout.String())
		}
	}
	stdout.Reset()
	if err := run([]string{"-serve", "127.0.0.1:0", "-ckpt", dir, "-resume"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "done in") {
		t.Errorf("resumed run's report lacks its completion:\n%s", stdout.String())
	}
}

// TestRunResumeTakesCheckpointShape resumes a no-pivot LU job without
// repeating -op, -n or -nb: the coordinator takes all three from the
// checkpoint, and its banner says so.
func TestRunResumeTakesCheckpointShape(t *testing.T) {
	dir := t.TempDir()
	var stdout strings.Builder
	if err := run([]string{"-serve", "127.0.0.1:0", "-op", "lunp", "-n", "96", "-nb", "16", "-ckpt", dir, "-ckpt-every", "2"}, &stdout); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run([]string{"-serve", "127.0.0.1:0", "-ckpt", dir, "-resume"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), ": lunp n=96 nb=16 ") {
		t.Errorf("resumed run's banner does not name the checkpoint's op and shape:\n%s", stdout.String())
	}
	if err := run([]string{"-serve", "127.0.0.1:0", "-ckpt", dir, "-resume", "-op", "cholesky"}, &stdout); err == nil {
		t.Error("resuming a lunp checkpoint with -op cholesky returned nil, want an error")
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-serve", "127.0.0.1:0", "-join", "127.0.0.1:1"},
		{"-serve", "127.0.0.1:0", "-resume"},
		{"-serve", "127.0.0.1:0", "-op", "svd"},
	} {
		var stdout strings.Builder
		if err := run(args, &stdout); err == nil {
			t.Errorf("run(%q) returned nil, want an error", args)
		}
	}
}
