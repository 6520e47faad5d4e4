package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the test binary as nocsim itself when asNocsim is set,
// so the tests can observe exit codes and stderr.
func TestMain(m *testing.M) {
	if os.Getenv(asNocsim) != "" {
		os.Args = append([]string{"nocsim"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asNocsim = "NOCSIM_TEST_AS_MAIN"

// TestParse drives the flag rules through parse: the CLI's own rules
// on default-valued and combined flags, and Validate's errors passed on
// unchanged.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-shards", "0"}, ""},
		{[]string{"-restore", "run.ckpt", "-shards", "-3"}, ""}, // checked against the checkpoint's mesh
		{[]string{"-shards", "-3"}, "shards -3"},
		{[]string{"-size", "4", "-shards", "17"}, "shards 17"},
		{[]string{"-size", "0"}, "-size 0"},
		{[]string{"-faults", "corrupt:rate=1e-3", "-faultscale", "0"}, "-faultscale 0"},
		{[]string{"-fp-healing", "-scheme", "EscapeVC"}, "FastPass configuration"},
		{[]string{"-checkpoint", "run.ckpt"}, "set together"},
		{[]string{"-app", "FFT", "-telemetry", "t.jsonl"}, "synthetic runs"},
		{[]string{"-h"}, flag.ErrHelp.Error()},
	} {
		_, err := parse(tc.args)
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
			t.Errorf("parse(%q) = %v, want an error mentioning %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestRejectsWithoutPanic: a flag combination the simulator cannot run
// is a one-line error and exit 2, never a Go panic — a bad -shards on
// -restore too, checked against the checkpoint's 4x4 mesh.
func TestRejectsWithoutPanic(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := nocsim("-size", "4", "-warmup", "100", "-measure", "100", "-drain", "100",
		"-checkpoint", ckpt, "-checkpoint-every", "100"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scheme", "MinBD", "-app", "Radix"}, "nocsim: sim: scheme MinBD cannot run protocol traffic"},
		{[]string{"-app", "NotAnApp"}, "NotAnApp"},
		{[]string{"-size", "4", "-faults", "linkfail:link=999,at=10,perm"}, "nocsim: sim: faults: event link 999 outside topology (48 links)"},
		{[]string{"-size", "4", "-faults", "stallconsumer:node=99,at=10,perm"}, "event node 99 outside topology (16 nodes)"},
		{[]string{"-restore", ckpt, "-shards", "17"}, "nocsim: sim: shards 17"},
	} {
		stderr, err := nocsim(tc.args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("nocsim %v: %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr, tc.want) || strings.Contains(stderr, "goroutine") {
			t.Errorf("nocsim %v stderr:\n%s\nwant %q and no goroutine dump", tc.args, stderr, tc.want)
		}
	}
}

// nocsim runs the test binary as the command and returns its stderr.
func nocsim(args ...string) (string, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asNocsim+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stderr.String(), err
}
