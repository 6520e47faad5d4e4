package exp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/traffic"
)

var quick = Scale{Quick: true}

func TestFig7QuickShape(t *testing.T) {
	r := run(0, Fig7(quick, traffic.Uniform))
	if len(r.Series) != len(Fig7Schemes()) {
		t.Fatalf("series for %d schemes, want %d", len(r.Series), len(Fig7Schemes()))
	}
	for name, lat := range r.Series {
		if len(lat) != len(r.Rates) {
			t.Fatalf("%s: %d points for %d rates", name, len(lat), len(r.Rates))
		}
		if math.IsNaN(lat[0]) {
			t.Errorf("%s saturated at the lowest rate", name)
		}
		if lat[0] < 4 || lat[0] > 40 {
			t.Errorf("%s low-load latency %v implausible", name, lat[0])
		}
	}
	// The paper's headline: FastPass saturates no earlier than any other
	// scheme (ties allowed; -1 means never saturated in the grid).
	fpSat := r.SatRate["FastPass"]
	for name, sat := range r.SatRate {
		if fpSat < 0 {
			break
		}
		if sat < 0 && name != "FastPass" {
			t.Errorf("%s outlasted FastPass in the rate grid", name)
		}
		if sat > 0 && fpSat > 0 && sat > fpSat {
			t.Errorf("%s saturates later than FastPass (%v > %v)", name, sat, fpSat)
		}
	}
	if !strings.Contains(r.String(), "Fig. 7") {
		t.Error("rendering broken")
	}
}

func TestFig9QuickShape(t *testing.T) {
	pts := run(0, Fig9(quick))
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	firstBufferless := -1.0
	for _, p := range pts {
		if math.IsNaN(p.FastBufferless) {
			continue
		}
		if firstBufferless < 0 {
			firstBufferless = p.FastBufferless
		}
		// The bufferless component must stay small and roughly flat —
		// the paper's key observation.
		if p.FastBufferless > 3*firstBufferless+10 {
			t.Errorf("bufferless time exploded: %v at rate %v", p.FastBufferless, p.Rate)
		}
	}
	if firstBufferless < 0 {
		t.Fatal("no FastPass packets measured at any rate")
	}
	if !strings.Contains(Fig9String(pts), "Fig. 9") {
		t.Error("rendering broken")
	}
}

func TestFig13aQuickShape(t *testing.T) {
	pts := run(0, Fig13a(quick))
	for _, p := range pts {
		sum := p.RegularFrac + p.FastFrac + p.DroppedFrac
		if sum > 0 && math.Abs(sum-1) > 1e-9 {
			t.Errorf("rate %v: fractions sum to %v", p.Rate, sum)
		}
		if p.DroppedFrac > 0.10 {
			t.Errorf("rate %v: dropped fraction %v exceeds the paper's ~6%% post-saturation ceiling", p.Rate, p.DroppedFrac)
		}
	}
	// FastPass participation grows with load.
	if pts[len(pts)-1].FastFrac <= pts[0].FastFrac {
		t.Errorf("FastPass fraction should grow with load: %v -> %v",
			pts[0].FastFrac, pts[len(pts)-1].FastFrac)
	}
	if !strings.Contains(Fig13aString(pts), "Fig. 13(a)") {
		t.Error("rendering broken")
	}
}

func TestFig10QuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("application matrix is slow")
	}
	cells := run(0, Fig10(quick))
	want := len(quick.Fig10Apps()) * len(Fig10Matrix())
	if len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Timeout {
			t.Errorf("%s on %s timed out", c.App, c.Scheme)
		}
		if math.IsNaN(c.AvgLatency) || c.AvgLatency <= 0 {
			t.Errorf("%s on %s: bad latency %v", c.App, c.Scheme, c.AvgLatency)
		}
		if c.P99Latency < c.AvgLatency {
			t.Errorf("%s on %s: p99 %v below mean %v", c.App, c.Scheme, c.P99Latency, c.AvgLatency)
		}
	}
	out := Fig10String(cells)
	if !strings.Contains(out, "norm") {
		t.Error("rendering broken")
	}
	if !strings.Contains(Fig12String(cells), "Fig. 12") {
		t.Error("Fig. 12 rendering broken")
	}
}

func TestFig13bQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("application runs are slow")
	}
	cells := run(0, Fig13b(quick))
	if len(cells) != 3 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if c.DroppedFrac > 0.05 {
			t.Errorf("%s: dropped fraction %v far above the paper's 0.3%%", c.App, c.DroppedFrac)
		}
	}
	if !strings.Contains(Fig13bString(cells), "Fig. 13(b)") {
		t.Error("rendering broken")
	}
}

func TestFig8QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation bisection is slow")
	}
	r := run(0, Fig8(quick))
	for _, sc := range Fig8Schemes() {
		vals := r.Sat[sc.String()]
		if len(vals) != len(r.Sizes) {
			t.Fatalf("%v: %d sizes", sc, len(vals))
		}
		for i, v := range vals {
			if v <= 0 || v > 1 {
				t.Errorf("%v at %dx%d: throughput %v implausible", sc, r.Sizes[i], r.Sizes[i], v)
			}
		}
	}
	// FastPass must win at every size (the Fig. 8 story).
	for i := range r.Sizes {
		fp := r.Sat["FastPass"][i]
		for _, sc := range Fig8Schemes() {
			if sc.String() == "FastPass" {
				continue
			}
			if r.Sat[sc.String()][i] > fp*1.05 {
				t.Errorf("%v beats FastPass at %dx%d: %v vs %v",
					sc, r.Sizes[i], r.Sizes[i], r.Sat[sc.String()][i], fp)
			}
		}
	}
	if !strings.Contains(r.String(), "Fig. 8") {
		t.Error("rendering broken")
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations run full simulations")
	}
	rs := run(0, Ablations(quick))
	if len(rs) != 2 {
		t.Fatalf("%d ablation studies", len(rs))
	}
	for _, r := range rs {
		if len(r.Rows) != 2 {
			t.Fatalf("%s: %d rows", r.Name, len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.Metrics == "" {
				t.Errorf("%s/%s: empty metrics", r.Name, row.Variant)
			}
		}
	}
	if !strings.Contains(AblationsString(rs), "Ablations") {
		t.Error("rendering broken")
	}
}
