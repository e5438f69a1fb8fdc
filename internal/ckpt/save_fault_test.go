package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exadla/internal/tile"
)

// faultFile wraps the temp file Save encodes into, injecting the failure
// shapes a full or dying disk produces: a short write partway through the
// payload, a failing fsync, or a failing close.
type faultFile struct {
	f *os.File
	// writeBudget is how many bytes Write accepts before failing; -1 means
	// unlimited. A short write lands the accepted prefix on disk, like a
	// real ENOSPC.
	writeBudget int
	failSync    bool
	failClose   bool
	wrote       int
}

var errDiskFull = errors.New("injected: no space left on device")

func (w *faultFile) Write(p []byte) (int, error) {
	if w.writeBudget >= 0 {
		room := w.writeBudget - w.wrote
		if room < len(p) {
			if room < 0 {
				room = 0
			}
			n, _ := w.f.Write(p[:room])
			w.wrote += n
			return n, errDiskFull
		}
	}
	n, err := w.f.Write(p)
	w.wrote += n
	return n, err
}

func (w *faultFile) Sync() error {
	if w.failSync {
		return errDiskFull
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error {
	err := w.f.Close()
	if w.failClose {
		return errDiskFull
	}
	return err
}

// withFaultySaves points Save's temp-file hook at a faultFile factory for
// the duration of the test.
func withFaultySaves(t *testing.T, make_ func(*os.File) *faultFile) {
	t.Helper()
	old := newSaveFile
	newSaveFile = func(f *os.File) syncWriter { return make_(f) }
	t.Cleanup(func() { newSaveFile = old })
}

func testCheckpoint(step int) *Checkpoint {
	n := 16
	data := make([]float64, n*n)
	for i := range data {
		data[i] = float64(i+step) * 1.25
	}
	return &Checkpoint{Op: OpCholesky, Step: step, A: tile.FromColMajor(n, n, data, n, 4)}
}

// assertDirClean fails if dir holds any visible checkpoint or leftover
// temp file beyond the expected names.
func assertOnly(t *testing.T, dir string, want ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range ents {
		seen[e.Name()] = true
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Errorf("leftover temp file %s after failed save", e.Name())
		}
	}
	for _, w := range want {
		if !seen[w] {
			t.Errorf("expected %s in dir, have %v", w, seen)
		}
	}
	if len(ents) != len(want) {
		t.Errorf("dir holds %d entries, want %d: %v", len(ents), len(want), seen)
	}
}

func TestSaveDiskFullLeavesNoCheckpoint(t *testing.T) {
	// Fail at several points through the file: inside the magic, inside the
	// header frame, and inside the tile frames. None may leave anything a
	// reader could mistake for a checkpoint.
	for _, budget := range []int{0, 8, 100, 16 + 16*16*8} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			dir := t.TempDir()
			withFaultySaves(t, func(f *os.File) *faultFile {
				return &faultFile{f: f, writeBudget: budget}
			})
			if _, err := Save(dir, testCheckpoint(1)); !errors.Is(err, errDiskFull) {
				t.Fatalf("Save = %v, want injected disk-full error", err)
			}
			assertOnly(t, dir) // empty: no ckpt, no temp litter
			if _, _, err := Latest(dir); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Latest after torn save = %v, want ErrNoCheckpoint", err)
			}
		})
	}
}

func TestSaveSyncAndCloseFailuresAreFatal(t *testing.T) {
	for name, make_ := range map[string]func(*os.File) *faultFile{
		"sync":  func(f *os.File) *faultFile { return &faultFile{f: f, writeBudget: -1, failSync: true} },
		"close": func(f *os.File) *faultFile { return &faultFile{f: f, writeBudget: -1, failClose: true} },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			withFaultySaves(t, make_)
			if _, err := Save(dir, testCheckpoint(2)); !errors.Is(err, errDiskFull) {
				t.Fatalf("Save = %v, want injected error", err)
			}
			// Every byte was written, but durability was never confirmed — the
			// rename must not have happened.
			assertOnly(t, dir)
		})
	}
}

func TestFailedSavePreservesPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := Save(dir, testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	withFaultySaves(t, func(f *os.File) *faultFile {
		return &faultFile{f: f, writeBudget: 200}
	})
	if _, err := Save(dir, testCheckpoint(2)); !errors.Is(err, errDiskFull) {
		t.Fatalf("Save = %v, want injected disk-full error", err)
	}
	assertOnly(t, dir, "ckpt-000001.ckpt")
	c, path, err := Latest(dir)
	if err != nil {
		t.Fatalf("Latest = %v, want the step-1 checkpoint to survive", err)
	}
	if c.Step != 1 || filepath.Base(path) != "ckpt-000001.ckpt" {
		t.Fatalf("Latest = step %d (%s), want step 1", c.Step, path)
	}
	got, want := c.A.ToColMajor(), testCheckpoint(1).A.ToColMajor()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("surviving checkpoint data[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
