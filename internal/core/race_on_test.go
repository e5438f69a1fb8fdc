//go:build race

package core

// raceEnabled reports whether the race detector is active; under it
// sync.Pool intentionally bypasses caching, so allocation-count tests
// do not hold.
const raceEnabled = true
