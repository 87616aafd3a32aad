//go:build race

package core

// raceEnabled reports whether the race detector is compiled in. The
// allocation gates skip under race: the detector makes sync.Pool drop Puts
// at random, so alloc counts are meaningless there.
const raceEnabled = true
