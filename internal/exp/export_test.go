package exp

import (
	"encoding/csv"
	"math"
	"strings"
	"testing"

	"repro/internal/traffic"
)

func parseCSV(t *testing.T, s string) [][]string {
	t.Helper()
	rows, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatalf("invalid CSV: %v\n%s", err, s)
	}
	return rows
}

func TestFig7CSV(t *testing.T) {
	r := Fig7Result{
		Pattern: traffic.Uniform,
		Rates:   []float64{0.02, 0.04},
		Schemes: Fig7Schemes(),
		Series:  map[string][]float64{},
		SatRate: map[string]float64{},
	}
	for _, sc := range Fig7Schemes() {
		r.Series[sc.String()] = []float64{15.0, math.NaN()}
	}
	rows := parseCSV(t, r.CSV())
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0] != "rate" || len(rows[0]) != 1+len(Fig7Schemes()) {
		t.Fatalf("header: %v", rows[0])
	}
	if rows[1][1] != "15.00" {
		t.Errorf("value cell: %v", rows[1])
	}
	if rows[2][1] != "" {
		t.Errorf("saturated cell should be empty: %v", rows[2])
	}
}

func TestFig8CSV(t *testing.T) {
	r := Fig8Result{Sizes: []int{4, 8}, Sat: map[string][]float64{}}
	for _, sc := range Fig8Schemes() {
		r.Sat[sc.String()] = []float64{0.1, 0.2}
	}
	rows := parseCSV(t, r.CSV())
	if len(rows) != 3 || rows[1][0] != "4x4" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestFig9And13CSV(t *testing.T) {
	pts := []Fig9Point{{Rate: 0.01, RegularPktLatency: 13, FastRegular: 6, FastBufferless: 4, FastFraction: 0.03}}
	rows := parseCSV(t, Fig9CSV(pts))
	if len(rows) != 2 || rows[1][0] != "0.010" {
		t.Fatalf("fig9 rows: %v", rows)
	}
	bpts := []Fig13Point{{Rate: 0.02, RegularFrac: 0.9, FastFrac: 0.1}}
	rows = parseCSV(t, Fig13aCSV(bpts))
	if len(rows) != 2 || rows[1][1] != "0.9000" {
		t.Fatalf("fig13 rows: %v", rows)
	}
}

func TestFig10CSV(t *testing.T) {
	cells := []Fig10Cell{{App: "FFT", Scheme: "FastPass(VN=0,VC=2)", AvgLatency: 18, P99Latency: 49, ExecTime: 2532}}
	rows := parseCSV(t, Fig10CSV(cells))
	if len(rows) != 2 || rows[1][0] != "FFT" || rows[1][4] != "2532" {
		t.Fatalf("rows: %v", rows)
	}
}

func TestHotspotQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("hotspot sweep runs simulations")
	}
	pts := run(0, Hotspot(quick))
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	// Latency must rise with hotspot share for every scheme (unless it
	// saturates outright).
	for _, name := range []string{"EscapeVC", "SWAP", "FastPass"} {
		if pts[2].Saturated[name] {
			continue
		}
		if pts[2].Latency[name] <= pts[0].Latency[name] {
			t.Errorf("%s: latency did not rise with hotspot share (%v -> %v)",
				name, pts[0].Latency[name], pts[2].Latency[name])
		}
	}
	if !strings.Contains(HotspotString(pts), "Hotspot") {
		t.Error("rendering broken")
	}
}

func TestVCAndKSensitivityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweeps run simulations")
	}
	vcs := run(0, VCSensitivity(quick))
	if len(vcs) != 3 {
		t.Fatalf("%d VC points", len(vcs))
	}
	// Throughput must not shrink with more VCs.
	for i := 1; i < len(vcs); i++ {
		if vcs[i].SatThr < vcs[i-1].SatThr*0.9 {
			t.Errorf("throughput fell from %v (VCs=%d) to %v (VCs=%d)",
				vcs[i-1].SatThr, vcs[i-1].VCs, vcs[i].SatThr, vcs[i].VCs)
		}
	}
	if !strings.Contains(VCSensitivityString(vcs), "VC sensitivity") {
		t.Error("rendering broken")
	}

	ks := run(0, KSensitivity(quick))
	if len(ks) != 3 {
		t.Fatalf("%d K points", len(ks))
	}
	for _, p := range ks {
		if p.K <= 0 {
			t.Errorf("bad K %d", p.K)
		}
	}
	if !strings.Contains(KSensitivityString(ks), "slot-length") {
		t.Error("rendering broken")
	}
}
