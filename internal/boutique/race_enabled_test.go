//go:build race

package boutique

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under race: the detector makes sync.Pool drop Puts
// at random, so alloc counts are meaningless there.
const raceEnabled = true
