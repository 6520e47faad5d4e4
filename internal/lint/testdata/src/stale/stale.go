// Package stale carries one suppression naming a retired rule and one
// that silences nothing: both are findings.
package stale

// Tick is clean, so neither directive has anything to silence.
func Tick(cycle int64) int64 {
	//nocvet:ignore hotalloc the rule was folded into hotalloc2
	cycle++
	return cycle + 1 //nocvet:ignore cyclewidth nothing here narrows
}
