package powerarea_test

import (
	"fmt"

	"repro/internal/powerarea"
)

// ExampleEstimate reproduces the headline Fig. 11 ratio.
func ExampleEstimate() {
	var esc, fp float64
	for _, c := range powerarea.Fig11Configs() {
		r := powerarea.Estimate(c)
		switch c.Name {
		case "EscapeVC (VN=6, VC=2)":
			esc = r.Area.Total()
		case "FastPass (VN=0, VC=2)":
			fp = r.Area.Total()
		}
	}
	fmt.Printf("FastPass area reduction ≈ %.0f%%\n", 100*(1-fp/esc))
	// Output:
	// FastPass area reduction ≈ 40%
}
