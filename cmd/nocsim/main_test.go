package main

import (
	"errors"
	"os"
	"os/exec"
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

// TestRejectsWithoutPanic: a flag combination the simulator cannot run
// is a one-line error and exit 2, never a Go panic.
func TestRejectsWithoutPanic(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scheme", "MinBD", "-app", "Radix"}, "nocsim: -app: scheme MinBD cannot run protocol traffic"},
		{[]string{"-app", "NotAnApp"}, "NotAnApp"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), asNocsim+"=1")
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("nocsim %v: %v, want exit status 2", tc.args, err)
		}
		if got := stderr.String(); !strings.Contains(got, tc.want) || strings.Contains(got, "goroutine") {
			t.Errorf("nocsim %v stderr:\n%s\nwant %q and no goroutine dump", tc.args, got, tc.want)
		}
	}
}
