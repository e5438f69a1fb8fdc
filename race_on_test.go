//go:build race

package exadla_test

// raceEnabled reports whether the race detector is active; its
// instrumentation makes allocation figures meaningless.
const raceEnabled = true
