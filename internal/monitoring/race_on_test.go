//go:build race

package monitoring

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of its Puts on purpose, so allocation pins do not hold.
const raceEnabled = true
