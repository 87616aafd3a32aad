//go:build race

package codec

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under race: `make allocs` runs it in a plain build,
// whose counts are the ones that matter.
const raceEnabled = true
