//go:build !race

package fastpass

const raceEnabled = false
