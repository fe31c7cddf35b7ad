//go:build race

package index

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation guards over pooled scratch do not hold under it.
const raceEnabled = true
