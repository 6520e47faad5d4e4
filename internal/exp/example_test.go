package exp_test

import (
	"fmt"

	"repro/internal/exp"
)

// ExampleTable1 prints one row of the paper's qualitative comparison.
func ExampleTable1() {
	for _, row := range exp.Table1() {
		if row.Solution == "FastPass" {
			fmt.Println(row.NoDetection, row.ProtocolFree, row.NetworkFree, row.NoMisrouting)
		}
	}
	// Output:
	// true true true true
}
