//go:build !race

package exadla_test

const raceEnabled = false
