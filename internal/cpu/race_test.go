//go:build race

package cpu

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
