//go:build race

package wire

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of what it is given: a warm play's bytes then say nothing about
// the storage it reuses.
const raceEnabled = true
