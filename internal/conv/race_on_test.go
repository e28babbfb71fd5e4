//go:build race

package conv

// raceEnabled reports whether the race detector instruments this build;
// the region allocation bound skips itself under -race, where sync.Pool
// drops a share of its puts on purpose.
const raceEnabled = true
