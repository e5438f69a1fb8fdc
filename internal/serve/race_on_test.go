//go:build race

package serve

// raceEnabled reports whether the race detector is active; its shadow
// memory and instrumentation make heap-retention figures meaningless.
const raceEnabled = true
