package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/topology"
)

// goodArgs is the baseline command line every TestValidateFlags row
// extends (a later flag overrides an earlier one): a tiny campaign
// over a rate-based permanent link-failure plan.
var goodArgs = []string{
	"-variants", "FastPass-static,FastPass-healing", "-size", "4", "-runs", "2",
	"-faults", "linkfail:rate=1e-3,dur=32", "-warmup", "100", "-measure", "400", "-drain", "300", "-j", "1",
}

// TestValidateFlags drives every rule through parse, checking each
// rejection names what is at fault.
func TestValidateFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "baseline ok"},
		{name: "explicit seeds ok", args: []string{"-seeds", "7, 11,13"}},
		{name: "journal with resume ok", args: []string{"-journal", "j.jsonl", "-resume"}},
		{name: "bad variant", args: []string{"-variants", "NoSuch"}, wantErr: "-variants"},
		{name: "minbd variant", args: []string{"-variants", "MinBD"}, wantErr: "-variants"},
		{name: "bad pattern", args: []string{"-pattern", "NoSuch"}, wantErr: "-pattern"},
		{name: "zero size", args: []string{"-size", "0"}, wantErr: "-size"},
		{name: "one-node mesh", args: []string{"-size", "1"}, wantErr: "2x2"},
		{name: "rate above one", args: []string{"-rate", "2"}, wantErr: "[0, 1]"},
		{name: "zero rate", args: []string{"-rate", "0"}, wantErr: "-rate"},
		{name: "zero runs", args: []string{"-runs", "0"}, wantErr: "-runs"},
		{name: "bad seed", args: []string{"-seeds", "1,x"}, wantErr: "-seeds"},
		{name: "duplicate seed", args: []string{"-seeds", "3,3"}, wantErr: "FastPass-static|x0|s3 appears twice"},
		{name: "duplicate variant", args: []string{"-variants", "FastPass,FastPass-static"}, wantErr: "appears twice"},
		{name: "empty variant", args: []string{"-variants", "FastPass-static,,EscapeVC"}, wantErr: "empty variant name"},
		{name: "duplicate scale", args: []string{"-scales", "0,0"}, wantErr: "appears twice"},
		{name: "bad scale", args: []string{"-scales", "0,-1"}, wantErr: "fault scale"},
		{name: "bad fault plan", args: []string{"-faults", "linkfail:rate=2"}, wantErr: "faults"},
		{name: "event outside the mesh", args: []string{"-faults", "linkfail:link=999,at=10,perm"}, wantErr: "link 999 outside topology (48 links)"},
		{name: "bad watchdog", args: []string{"-watchdog", "stride=no"}, wantErr: "watchdog"},
		{name: "negative window", args: []string{"-measure", "-1"}, wantErr: "negative window"},
		{name: "resume without journal", args: []string{"-resume"}, wantErr: "-journal"},
		{name: "negative jobs", args: []string{"-j", "-1"}, wantErr: "-j"},
		{name: "scales without plan", args: []string{"-faults", ""}, wantErr: "fault"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := parse(append(slices.Clone(goodArgs), tc.args...))
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
	if _, err := parse([]string{"-h"}); err != flag.ErrHelp {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}

// quickArgs is the end-to-end test campaign: a targeted permanent
// failure of the 0→1 channel, so FastPass-healing measurably beats
// FastPass-static at scale 1. The files land in dir.
func quickArgs(t *testing.T, dir string, jobs int) []string {
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
	return append(slices.Clone(goodArgs), "-faults", spec, "-j", strconv.Itoa(jobs),
		"-out", filepath.Join(dir, "curves.csv"), "-journal", filepath.Join(dir, "journal.jsonl"))
}

// runQuick parses and runs one campaign, returning the journal and CSV
// bytes.
func runQuick(t *testing.T, args []string) (journal, csv []byte) {
	t.Helper()
	cfg, err := parse(args)
	if err != nil {
		t.Fatal(err)
	}
	if err := runCampaign(cfg, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	journal, err = os.ReadFile(cfg.journal)
	if err != nil {
		t.Fatal(err)
	}
	csv, err = os.ReadFile(cfg.out)
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
	j1, c1 := runQuick(t, quickArgs(t, t.TempDir(), 1))
	j4, c4 := runQuick(t, quickArgs(t, t.TempDir(), 4))
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
	cfg, err := parse(append(quickArgs(t, t.TempDir(), 2), "-resume"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(j1, []byte("\n"))
	var half []byte
	for _, l := range lines[:len(lines)/2] {
		half = append(half, l...)
	}
	if err := os.WriteFile(cfg.journal, half, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if err := runCampaign(cfg, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	jr, err := os.ReadFile(cfg.journal)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := os.ReadFile(cfg.out)
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
	cfg, err := parse(append(quickArgs(t, t.TempDir(), 2), "-out", ""))
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
