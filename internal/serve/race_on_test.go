//go:build race

package serve

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of its items on purpose, so allocation budgets mean nothing.
const raceEnabled = true
