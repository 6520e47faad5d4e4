package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/exp"
)

// TestRunSteps drives runSteps with stand-in plans: a table with no
// cells, Fig. 7, Fig. 8, whose cells must run first, and a Fig. 10
// plan that Fig. 12's step prints too, with and without fig10
// requested. At -j 1 the cells run Fig. 8's first, then in step order;
// at every -j each cell runs once, the steps print in step order after
// every cell ran, and Fig. 12 prints Fig. 10's results.
func TestRunSteps(t *testing.T) {
	fig10Cells := []exp.Fig10Cell{
		{App: "Radix", Scheme: "EscapeVC", ExecTime: 100, P99Latency: 30},
		{App: "Radix", Scheme: "FastPass", ExecTime: 80, P99Latency: 20},
	}
	for _, jobs := range []int{1, 4} {
		for _, withFig10 := range []bool{true, false} {
			var mu sync.Mutex
			var ran []string
			record := func(artefact string, i int) {
				mu.Lock()
				defer mu.Unlock()
				ran = append(ran, fmt.Sprintf("%s/%d", artefact, i))
			}
			stub := func(artefact string, n int) step {
				out := make([]int, n)
				st := step{artefact: artefact, print: func() { fmt.Println(artefact, out) }}
				for i := range out {
					st.cells = append(st.cells, func() { record(artefact, i); out[i] = 10 * (i + 1) })
				}
				return st
			}
			out10 := make([]exp.Fig10Cell, len(fig10Cells))
			plan10 := exp.Plan[[]exp.Fig10Cell]{Result: func() []exp.Fig10Cell { return out10 }}
			for i := range out10 {
				plan10.Cells = append(plan10.Cells, func() { record("fig10", i); out10[i] = fig10Cells[i] })
			}
			fig10, fig12 := fig10Steps(plan10, withFig10)
			steps := []step{{"table1", nil, func() { fmt.Println("table1") }}, stub("fig7", 3), stub("fig8", 2), fig10, fig12}
			if !withFig10 {
				steps = slices.Delete(steps, 3, 4)
			}
			got := stdout(t, func() { runSteps(jobs, steps) })

			want := "table1\nfig7 [10 20 30]\nfig8 [10 20]\n"
			if withFig10 {
				want += fmt.Sprintln(exp.Fig10String(fig10Cells))
			}
			want += fmt.Sprintln(exp.Fig12String(fig10Cells))
			if got != want {
				t.Errorf("-j %d, fig10 %t printed\n%s\nwant\n%s", jobs, withFig10, got, want)
			}
			wantRan := []string{"fig8/0", "fig8/1", "fig7/0", "fig7/1", "fig7/2", "fig10/0", "fig10/1"}
			if jobs == 1 && !slices.Equal(ran, wantRan) {
				t.Errorf("-j 1, fig10 %t ran %q, want %q", withFig10, ran, wantRan)
			}
			slices.Sort(ran)
			slices.Sort(wantRan)
			if !slices.Equal(ran, wantRan) {
				t.Errorf("-j %d, fig10 %t ran %q, want each of %q once", jobs, withFig10, ran, wantRan)
			}
		}
	}
}

// stdout returns what f prints to os.Stdout.
func stdout(t *testing.T, f func()) string {
	t.Helper()
	file, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = file
	f()
	os.Stdout = saved
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(file.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
