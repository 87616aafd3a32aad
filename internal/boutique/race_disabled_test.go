//go:build !race

package boutique

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
