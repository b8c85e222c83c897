//go:build race

package matrix

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of its items on purpose, so allocation counts mean nothing.
const raceEnabled = true
