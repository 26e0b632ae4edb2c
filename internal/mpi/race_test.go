//go:build race

package mpi

// raceEnabled reports whether the test binary runs under the race
// detector, whose sync.Pool drops a quarter of all puts on purpose.
const raceEnabled = true
