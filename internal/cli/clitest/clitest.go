// Package clitest drives a command's real main from its own tests: the
// test binary re-executes itself as the command, so a test sees the
// exit status, stdout and stderr a user would.
package clitest

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

const (
	envMain = "GOSPLICE_RUN_MAIN"
	envArgs = "GOSPLICE_ARGS"
)

// Main is the body of a command's TestMain: in a re-executed test
// binary it runs main as the command called name, otherwise the tests.
func Main(m *testing.M, name string, main func()) {
	if os.Getenv(envMain) == "1" {
		os.Args = append([]string{name}, strings.Fields(os.Getenv(envArgs))...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run re-executes the test binary as the command with args (which must
// not contain spaces) and returns what it printed and its exit status.
func Run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), envMain+"=1", envArgs+"="+strings.Join(args, " "))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}
