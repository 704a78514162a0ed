//go:build !race

package monitoring

const raceEnabled = false
