//go:build race

package bench

// raceEnabled trims the sweeps that run under the race detector (see
// TestParallelSweepMatchesSerial); the full-size forms run without it.
const raceEnabled = true
