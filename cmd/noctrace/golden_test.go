package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGoldenOutput pins noctrace's bytes at seed 1 over 3000 cycles —
// the text log, the JSON Lines log and one packet's lifecycle — across
// changes to the run loop the command steps through.
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"seed1.golden", nil},
		{"seed1_jsonl.golden", []string{"-jsonl"}},
		{"seed1_pkt3727.golden", []string{"-pkt", "3727"}},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-seed", "1", "-cycles", "3000"}, tc.args...)...)
		cmd.Env = append(os.Environ(), asMain+"=1")
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("noctrace %v: %v", tc.args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("noctrace %v drifted from testdata/%s (%d vs %d bytes)", tc.args, tc.golden, len(got), len(want))
		}
	}
}
