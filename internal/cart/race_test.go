//go:build race

package cart

// raceEnabled reports whether the test binary runs under the race
// detector, whose shadow memory multiplies a test's footprint several
// times over.
const raceEnabled = true
