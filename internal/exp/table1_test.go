package exp

import "testing"

func TestTable1Shape(t *testing.T) {
	rows := Table1()
	if len(rows) != 8 {
		t.Fatalf("Table I has 8 rows, got %d", len(rows))
	}
	if rows[len(rows)-1].Solution != "FastPass" {
		t.Error("FastPass must be the last row")
	}
	// FastPass is the only row with every column affirmative.
	for _, r := range rows {
		all := r.NoDetection && r.ProtocolFree && r.NetworkFree &&
			r.FullPathDiversity && r.HighThroughput && r.LowPower &&
			r.Scalable && r.NoMisrouting
		if all != (r.Solution == "FastPass") {
			t.Errorf("%s: all-yes = %v", r.Solution, all)
		}
	}
}
