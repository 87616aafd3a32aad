//go:build race

package pipe

// raceEnabled reports whether the race detector is compiled in. The
// allocation gates skip under race: `make allocs` runs them in a plain
// build, whose counts are the ones that matter.
const raceEnabled = true
