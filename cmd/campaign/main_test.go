package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

// goodFlags is a baseline flagValues every validateFlags case mutates:
// a tiny campaign over a rate-based permanent link-failure plan.
func goodFlags() flagValues {
	return flagValues{
		variants: "FastPass-static,FastPass-healing", pattern: "Uniform",
		size: 4, rate: 0.05, runs: 2, scales: "0,1",
		faults:   "linkfail:rate=1e-3,dur=32",
		watchdog: "on",
		warmup:   100, measure: 400, drain: 300,
		jobs: 1,
	}
}

// TestValidateFlags drives every cross-flag rule through the one
// consolidated validator, checking each rejection names the flag at
// fault.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mod     func(*flagValues)
		wantErr string
	}{
		{name: "baseline ok", mod: func(*flagValues) {}},
		{name: "explicit seeds ok", mod: func(fv *flagValues) { fv.seeds = "7, 11,13" }},
		{name: "journal with resume ok", mod: func(fv *flagValues) { fv.journal = "j.jsonl"; fv.resume = true }},
		{name: "bad variant", mod: func(fv *flagValues) { fv.variants = "NoSuch" }, wantErr: "-variants"},
		{name: "minbd variant", mod: func(fv *flagValues) { fv.variants = "MinBD" }, wantErr: "-variants"},
		{name: "bad pattern", mod: func(fv *flagValues) { fv.pattern = "NoSuch" }, wantErr: "-pattern"},
		{name: "zero size", mod: func(fv *flagValues) { fv.size = 0 }, wantErr: "-size"},
		{name: "one-node mesh", mod: func(fv *flagValues) { fv.size = 1 }, wantErr: "2x2"},
		{name: "rate above one", mod: func(fv *flagValues) { fv.rate = 2 }, wantErr: "[0, 1]"},
		{name: "zero rate", mod: func(fv *flagValues) { fv.rate = 0 }, wantErr: "-rate"},
		{name: "zero runs", mod: func(fv *flagValues) { fv.runs = 0 }, wantErr: "-runs"},
		{name: "bad seed", mod: func(fv *flagValues) { fv.seeds = "1,x" }, wantErr: "-seeds"},
		{name: "duplicate seed", mod: func(fv *flagValues) { fv.seeds = "3,3" }, wantErr: "-seeds"},
		{name: "bad scale", mod: func(fv *flagValues) { fv.scales = "0,-1" }, wantErr: "-scales"},
		{name: "bad fault plan", mod: func(fv *flagValues) { fv.faults = "linkfail:rate=2" }, wantErr: "-faults"},
		{name: "bad watchdog", mod: func(fv *flagValues) { fv.watchdog = "stride=no" }, wantErr: "-watchdog"},
		{name: "negative window", mod: func(fv *flagValues) { fv.measure = -1 }, wantErr: "-warmup/-measure/-drain"},
		{name: "resume without journal", mod: func(fv *flagValues) { fv.resume = true }, wantErr: "-journal"},
		{name: "negative jobs", mod: func(fv *flagValues) { fv.jobs = -1 }, wantErr: "-j"},
		{name: "scales without plan", mod: func(fv *flagValues) { fv.faults = "" }, wantErr: "fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fv := goodFlags()
			tc.mod(&fv)
			cfg, err := validateFlags(fv)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(cfg.camp.Seeds) == 0 || len(cfg.camp.Scales) == 0 {
				t.Errorf("validated config lost its axes: %+v", cfg.camp)
			}
		})
	}
}

// quickFlags is the end-to-end test campaign: a targeted permanent
// failure of the 0→1 channel, so FastPass-healing measurably beats
// FastPass-static at scale 1.
func quickFlags(t *testing.T, dir string, jobs int) flagValues {
	t.Helper()
	mesh := topology.NewMesh(4, 4)
	spec := ""
	for _, l := range mesh.Links() {
		if l.Src == 0 && l.Dst == 1 {
			spec = fmt.Sprintf("linkfail:link=%d,at=300,perm", l.ID)
		}
	}
	if spec == "" {
		t.Fatal("no 0→1 link in a 4x4 mesh?")
	}
	fv := goodFlags()
	fv.faults = spec
	fv.jobs = jobs
	fv.out = filepath.Join(dir, "curves.csv")
	fv.journal = filepath.Join(dir, "journal.jsonl")
	return fv
}

// runQuick validates and runs one campaign, returning the journal and
// CSV bytes.
func runQuick(t *testing.T, fv flagValues) (journal, csv []byte) {
	t.Helper()
	cfg, err := validateFlags(fv)
	if err != nil {
		t.Fatal(err)
	}
	if err := runCampaign(cfg, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	journal, err = os.ReadFile(fv.journal)
	if err != nil {
		t.Fatal(err)
	}
	csv, err = os.ReadFile(fv.out)
	if err != nil {
		t.Fatal(err)
	}
	return journal, csv
}

// TestCampaignEndToEnd is the CLI-level determinism contract: the
// journal and curve files are byte-identical at -j 1 and -j 4, and an
// interrupted campaign resumed from a half-written journal reproduces
// them exactly while re-simulating only the missing cells.
func TestCampaignEndToEnd(t *testing.T) {
	j1, c1 := runQuick(t, quickFlags(t, t.TempDir(), 1))
	j4, c4 := runQuick(t, quickFlags(t, t.TempDir(), 4))
	if !bytes.Equal(j1, j4) {
		t.Errorf("-j 1 and -j 4 journals differ:\n%s\nvs\n%s", j1, j4)
	}
	if !bytes.Equal(c1, c4) {
		t.Errorf("-j 1 and -j 4 curve CSVs differ:\n%s\nvs\n%s", c1, c4)
	}
	if !strings.Contains(string(c1), "FastPass-healing,1,") {
		t.Errorf("curve CSV missing the healing row at scale 1:\n%s", c1)
	}

	// Interrupt: keep only the first half of the journal lines, then
	// resume. The rewritten files must match the uninterrupted run.
	fv := quickFlags(t, t.TempDir(), 2)
	lines := bytes.SplitAfter(j1, []byte("\n"))
	var half []byte
	for _, l := range lines[:len(lines)/2] {
		half = append(half, l...)
	}
	if err := os.WriteFile(fv.journal, half, 0o644); err != nil {
		t.Fatal(err)
	}
	fv.resume = true
	var stderr bytes.Buffer
	cfg, err := validateFlags(fv)
	if err != nil {
		t.Fatal(err)
	}
	if err := runCampaign(cfg, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	jr, err := os.ReadFile(fv.journal)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := os.ReadFile(fv.out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jr, j1) {
		t.Errorf("resumed journal differs from uninterrupted journal:\n%s\nvs\n%s", jr, j1)
	}
	if !bytes.Equal(cr, c1) {
		t.Errorf("resumed curve CSV differs:\n%s\nvs\n%s", cr, c1)
	}
	if !strings.Contains(stderr.String(), "resuming") {
		t.Errorf("resume did not report journaled cells: %q", stderr.String())
	}
}

// TestCampaignCSVToStdout: with no -out the curves go to stdout.
func TestCampaignCSVToStdout(t *testing.T) {
	fv := quickFlags(t, t.TempDir(), 2)
	fv.out = ""
	cfg, err := validateFlags(fv)
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := runCampaign(cfg, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stdout.String(), "variant,scale,runs,") {
		t.Errorf("stdout does not start with the curve header:\n%s", stdout.String())
	}
}
