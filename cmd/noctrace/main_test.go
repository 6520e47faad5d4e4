package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the test binary as the command itself when asMain is
// set, so the tests can observe exit codes and stderr.
func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		os.Args = append([]string{"noctrace"}, os.Args[1:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asMain = "NOCTRACE_TEST_AS_MAIN"

// TestRejectsWithoutPanic: a flag value the command cannot run is a
// one-line error and exit 2, never a Go panic.
func TestRejectsWithoutPanic(t *testing.T) {
	for _, args := range [][]string{
		{"-size", "0"}, {"-size", "1"}, {"-vcs", "99"}, {"-scheme", "EscapeVC", "-vcs", "1"},
		{"-rate", "2"}, {"-cycles", "-5"}, {"-events", "0"}, {"-events", "-3"}, {"-events", "1048577"}, {"-json", "-jsonl"},
		{"-scheme", "Nope"},
	} {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), asMain+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("noctrace %v: %v, want exit status 2", args, err)
		}
		if got := stderr.String(); !strings.HasPrefix(got, "noctrace: ") || strings.Count(got, "\n") != 1 {
			t.Errorf("noctrace %v stderr:\n%s\nwant one line", args, got)
		}
	}
}
