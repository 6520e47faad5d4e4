package main

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/exp"
)

// TestRunSteps drives runSteps with stand-in drivers: one that hands
// cells over, one whose cells feed a later step of the same artefact
// (as Fig. 10's runs feed Fig. 12), one with no cells, and Fig. 8,
// whose cells must run first. At -j 1 the cells run in that order; at
// every -j each step prints once, in step order, after all cells ran.
// CI runs it under the race detector, which checks the handoff.
func TestRunSteps(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var mu sync.Mutex
		var ran, printed []string
		record := func(log *[]string, what string) {
			mu.Lock()
			defer mu.Unlock()
			*log = append(*log, what)
		}
		cells := func(s exp.Scale, artefact string, n int) []int {
			out := make([]int, n)
			var fns []func()
			for i := range out {
				fns = append(fns, func() {
					record(&ran, fmt.Sprintf("%s/%d", artefact, i))
					out[i] = 10 * (i + 1)
				})
			}
			s.Run(fns)
			return out
		}
		var shared []int
		steps := []step{
			{"table1", func(exp.Scale) func() { return func() { record(&printed, "table1") } }},
			{"fig7", func(s exp.Scale) func() {
				got := cells(s, "fig7", 3)
				return func() { record(&printed, fmt.Sprint("fig7 ", got)) }
			}},
			{"fig8", func(s exp.Scale) func() {
				got := cells(s, "fig8", 2)
				return func() { record(&printed, fmt.Sprint("fig8 ", got)) }
			}},
			{"fig10", func(s exp.Scale) func() {
				shared = cells(s, "fig10", 2)
				return func() { record(&printed, "fig10") }
			}},
			{"fig12", func(exp.Scale) func() { return func() { record(&printed, fmt.Sprint("fig12 ", shared)) } }},
		}
		runSteps(exp.Scale{Quick: true}, jobs, steps)

		wantPrinted := []string{"table1", "fig7 [10 20 30]", "fig8 [10 20]", "fig10", "fig12 [10 20]"}
		if !slices.Equal(printed, wantPrinted) {
			t.Errorf("-j %d printed %q, want %q", jobs, printed, wantPrinted)
		}
		wantRan := []string{"fig8/0", "fig8/1", "fig7/0", "fig7/1", "fig7/2", "fig10/0", "fig10/1"}
		if jobs == 1 && !slices.Equal(ran, wantRan) {
			t.Errorf("-j 1 ran %q, want %q", ran, wantRan)
		}
		slices.Sort(ran)
		slices.Sort(wantRan)
		if !slices.Equal(ran, wantRan) {
			t.Errorf("-j %d ran %q, want each of %q once", jobs, ran, wantRan)
		}
	}
}
