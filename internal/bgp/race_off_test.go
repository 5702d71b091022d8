//go:build !race

package bgp

// raceEnabled reports whether the race detector is compiled in; allocation
// guards are skipped under -race, where sync.Pool drops items at random.
const raceEnabled = false
