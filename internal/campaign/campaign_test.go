package campaign

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// testConfig is a small campaign over a targeted permanent link
// failure: the 0→1 channel dies at cycle 300, which wedges 0→1 traffic
// under FastPass-static and is healed around under FastPass-healing.
func testConfig(jobs int) Config {
	mesh := topology.NewMesh(4, 4)
	spec := ""
	for _, l := range mesh.Links() {
		if l.Src == 0 && l.Dst == 1 {
			spec = fmt.Sprintf("linkfail:link=%d,at=300,perm", l.ID)
		}
	}
	return Config{
		Base: sim.SynthConfig{
			Options: sim.Options{W: 4, H: 4, Faults: spec},
			Pattern: traffic.Uniform,
			Rate:    0.05,
			Warmup:  200, Measure: 800, Drain: 500,
		},
		Variants: []Variant{{Scheme: sim.FastPass}, {Scheme: sim.FastPass, Healing: true}},
		Scales:   []float64{0, 1},
		Seeds:    []int64{1, 2, 3},
		Jobs:     jobs,
	}
}

func TestParseVariant(t *testing.T) {
	cases := []struct {
		name    string
		want    Variant
		wantErr bool
	}{
		{name: "FastPass", want: Variant{Scheme: sim.FastPass}},
		{name: "FastPass-static", want: Variant{Scheme: sim.FastPass}},
		{name: "FastPass-healing", want: Variant{Scheme: sim.FastPass, Healing: true}},
		{name: "EscapeVC", want: Variant{Scheme: sim.EscapeVC}},
		{name: "MinBD", wantErr: true},
		{name: "NoSuchScheme", wantErr: true},
		{name: "", wantErr: true},
	}
	for _, c := range cases {
		v, err := ParseVariant(c.name)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseVariant(%q) accepted, want error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseVariant(%q): %v", c.name, err)
			continue
		}
		if v != c.want {
			t.Errorf("ParseVariant(%q) = %+v, want %+v", c.name, v, c.want)
		}
	}
	if _, err := ParseVariants("FastPass-static, FastPass-healing ,EscapeVC"); err != nil {
		t.Errorf("ParseVariants rejected a valid list: %v", err)
	}
	if _, err := ParseVariants(" , "); err == nil {
		t.Error("ParseVariants accepted an empty list")
	}
}

func TestValidate(t *testing.T) {
	ok := testConfig(1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, mut := range []struct {
		name string
		mod  func(*Config)
	}{
		{"no variants", func(c *Config) { c.Variants = nil }},
		{"no scales", func(c *Config) { c.Scales = nil }},
		{"no seeds", func(c *Config) { c.Seeds = nil }},
		{"negative scale", func(c *Config) { c.Scales = []float64{-1} }},
		{"minbd", func(c *Config) { c.Variants = []Variant{{Scheme: sim.MinBD}} }},
		{"healing non-fastpass", func(c *Config) { c.Variants = []Variant{{Scheme: sim.EscapeVC, Healing: true}} }},
		{"scales without plan", func(c *Config) { c.Base.Faults = "" }},
		{"repeated variant", func(c *Config) { c.Variants = append(c.Variants, c.Variants[0]) }},
		{"repeated scale", func(c *Config) { c.Scales = append(c.Scales, c.Scales[0]) }},
		{"repeated seed", func(c *Config) { c.Seeds = append(c.Seeds, c.Seeds[0]) }},
	} {
		c := testConfig(1)
		mut.mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", mut.name)
		}
	}
}

// renderAll is the full deterministic output of a campaign: journal
// bytes plus curve CSV bytes.
func renderAll(t *testing.T, c Config, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJournal(&buf, recs); err != nil {
		t.Fatalf("WriteJournal: %v", err)
	}
	curves, err := Aggregate(c, recs)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if err := WriteCurvesCSV(&buf, curves); err != nil {
		t.Fatalf("WriteCurvesCSV: %v", err)
	}
	return buf.Bytes()
}

// TestJobsEquivalence is the campaign determinism contract: the journal
// and curve files are byte-identical at -j 1 and -j 4.
func TestJobsEquivalence(t *testing.T) {
	serialCfg := testConfig(1)
	serial, err := Run(serialCfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := testConfig(4)
	par, err := Run(parallelCfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderAll(t, serialCfg, serial), renderAll(t, parallelCfg, par)
	if !bytes.Equal(a, b) {
		t.Errorf("-j 1 and -j 4 outputs differ\nj1:\n%s\nj4:\n%s", a, b)
	}
}

// TestResumeReusesRecords: cells present in the resume map are never
// re-simulated, and the final output matches an uninterrupted run byte
// for byte.
func TestResumeReusesRecords(t *testing.T) {
	cfg := testConfig(2)
	full, err := Run(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, cfg, full)

	// Pretend the first half was journaled before an interrupt.
	var journal bytes.Buffer
	if err := WriteJournal(&journal, full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	done, err := ReadJournal(&journal)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	var mu sync.Mutex
	fresh := 0
	resumed, err := Run(cfg, done, func(Record) {
		mu.Lock()
		fresh++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if wantFresh := len(full) - len(full)/2; fresh != wantFresh {
		t.Errorf("resume re-simulated %d cells, want %d", fresh, wantFresh)
	}
	if got := renderAll(t, cfg, resumed); !bytes.Equal(got, want) {
		t.Errorf("resumed output differs from uninterrupted output\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestReadJournalTornTail: a final line cut mid-record is dropped, a
// malformed line anywhere else fails the resume.
func TestReadJournalTornTail(t *testing.T) {
	cfg := testConfig(1)
	recs := []Record{
		{Variant: "FastPass-static", Scale: 1, Seed: 1, TripCycle: -1},
		{Variant: "FastPass-healing", Scale: 1, Seed: 1, TripCycle: -1},
	}
	var buf bytes.Buffer
	if err := WriteJournal(&buf, recs); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-10] // cut into the last record
	done, err := ReadJournal(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail should resume: %v", err)
	}
	if len(done) != 1 {
		t.Errorf("torn journal recovered %d records, want 1", len(done))
	}
	corrupt := append([]byte("{nonsense}\n"), buf.Bytes()...)
	if _, err := ReadJournal(bytes.NewReader(corrupt)); err == nil {
		t.Error("mid-journal corruption should fail the resume")
	}
	_ = cfg
}

// TestHealingCurveBeatsStatic is the campaign-level pin of the
// self-healing claim: at fault scale 1 (the targeted permanent link
// failure live), the FastPass-healing curve delivers a strictly higher
// median fraction than FastPass-static over the same seed population,
// and records one heal per run.
func TestHealingCurveBeatsStatic(t *testing.T) {
	cfg := testConfig(0)
	recs, err := Run(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := Aggregate(cfg, recs)
	if err != nil {
		t.Fatal(err)
	}
	find := func(variant string, scale float64) Curve {
		for _, c := range curves {
			if c.Variant == variant && c.Scale == scale {
				return c
			}
		}
		t.Fatalf("no curve for %s x%g", variant, scale)
		return Curve{}
	}
	static := find("FastPass-static", 1)
	healed := find("FastPass-healing", 1)
	if healed.DeliveredP50 <= static.DeliveredP50 {
		t.Errorf("healing p50 %.4f <= static p50 %.4f under permanent link failure",
			healed.DeliveredP50, static.DeliveredP50)
	}
	if healed.Heals != int64(len(cfg.Seeds)) {
		t.Errorf("healing curve recorded %d heals over %d seeds", healed.Heals, len(cfg.Seeds))
	}
	if static.Heals != 0 {
		t.Errorf("static curve recorded %d heals, want 0", static.Heals)
	}
	// The fault-free control must not differ between the two FastPass
	// variants: with no permanent failure the healing path never engages.
	s0, h0 := find("FastPass-static", 0), find("FastPass-healing", 0)
	if s0.DeliveredP50 != h0.DeliveredP50 || h0.Heals != 0 {
		t.Errorf("fault-free control differs: static p50 %v, healing p50 %v, heals %d",
			s0.DeliveredP50, h0.DeliveredP50, h0.Heals)
	}
}

// TestAggregateMissingCell: a partial population is an error, never a
// silently skewed curve.
func TestAggregateMissingCell(t *testing.T) {
	cfg := testConfig(1)
	recs, err := Run(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Aggregate(cfg, recs[:len(recs)-1]); err == nil {
		t.Error("Aggregate accepted a missing cell")
	}
}
