package powerarea

import "testing"

func estim(name string) Result {
	for _, c := range Fig11Configs() {
		if c.Name == name {
			return Estimate(c)
		}
	}
	panic("unknown config " + name)
}

func TestFig11Configs(t *testing.T) {
	cfgs := Fig11Configs()
	if len(cfgs) != 6 {
		t.Fatalf("Fig. 11 has 6 configurations, got %d", len(cfgs))
	}
	for _, c := range cfgs {
		r := Estimate(c)
		if r.Area.Total() <= 0 || r.Power.Total() <= 0 {
			t.Errorf("%s: non-positive estimate", c.Name)
		}
	}
}

func TestEscapeVCMagnitude(t *testing.T) {
	esc := estim("EscapeVC (VN=6, VC=2)")
	if a := esc.Area.Total(); a < 300000 || a > 400000 {
		t.Errorf("EscapeVC area %.0f outside the paper's ~350k µm² band", a)
	}
	if p := esc.Power.Total(); p < 280000 || p > 400000 {
		t.Errorf("EscapeVC power %.0f outside the paper's ~330k µW band", p)
	}
}

func TestBuffersDominate(t *testing.T) {
	for _, c := range Fig11Configs() {
		r := Estimate(c)
		if r.Area.Buffers <= r.Area.Crossbar || r.Area.Buffers <= r.Area.Arbiters {
			t.Errorf("%s: buffers do not dominate area (%v)", c.Name, r.Area)
		}
	}
}

// The headline claim: FastPass cuts ~40% of EscapeVC's power and area
// (paper: 41% power, 40% area).
func TestFastPassReductionMatchesPaper(t *testing.T) {
	esc := estim("EscapeVC (VN=6, VC=2)")
	fp := estim("FastPass (VN=0, VC=2)")
	areaRed := 1 - fp.Area.Total()/esc.Area.Total()
	powerRed := 1 - fp.Power.Total()/esc.Power.Total()
	if areaRed < 0.35 || areaRed > 0.46 {
		t.Errorf("area reduction %.1f%% not in the paper's ~40%% band", 100*areaRed)
	}
	if powerRed < 0.35 || powerRed > 0.47 {
		t.Errorf("power reduction %.1f%% not in the paper's ~41%% band", 100*powerRed)
	}
}

// SPIN pays ~6% area for its detection circuit.
func TestSpinOverheadMatchesPaper(t *testing.T) {
	esc := estim("EscapeVC (VN=6, VC=2)")
	spin := estim("SPIN (VN=6, VC=2)")
	over := spin.Area.Total()/esc.Area.Total() - 1
	if over < 0.04 || over > 0.08 {
		t.Errorf("SPIN area overhead %.1f%% not near the paper's 6%%", 100*over)
	}
}

// FastPass's own management logic is ~4% of its area.
func TestFastPassOverheadFraction(t *testing.T) {
	fp := estim("FastPass (VN=0, VC=2)")
	frac := fp.Area.Overhead / fp.Area.Total()
	if frac < 0.03 || frac > 0.05 {
		t.Errorf("FastPass overhead fraction %.1f%% not near 4%%", 100*frac)
	}
}

// FastPass and Pitstop land within a few percent of each other.
func TestFastPassMatchesPitstop(t *testing.T) {
	fp := estim("FastPass (VN=0, VC=2)")
	ps := estim("Pitstop (VN=0, VC=2)")
	ratio := fp.Area.Total() / ps.Area.Total()
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("FastPass/Pitstop area ratio %.3f, want ≈1", ratio)
	}
}

func TestMoreVCsCostMore(t *testing.T) {
	two := Estimate(Config{Name: "fp2", VNs: 1, VCsPerVN: 2, BufFlits: 5})
	four := Estimate(Config{Name: "fp4", VNs: 1, VCsPerVN: 4, BufFlits: 5})
	if four.Area.Total() <= two.Area.Total() {
		t.Error("4 VCs should cost more area than 2")
	}
	if four.Power.Total() <= two.Power.Total() {
		t.Error("4 VCs should cost more power than 2")
	}
}

func TestStringRendering(t *testing.T) {
	s := Estimate(Fig11Configs()[0]).String()
	if len(s) == 0 {
		t.Fatal("empty summary")
	}
}
