package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// With CSTF_MAIN_ARGS set, the test binary runs the CLI on those arguments
// instead of the tests, so a test can check what the CLI prints and how it
// exits.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CSTF_MAIN_ARGS"); ok {
		os.Args = append([]string{"cstf"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runCLI(t *testing.T, args string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CSTF_MAIN_ARGS="+args)
	var eb bytes.Buffer
	cmd.Stderr = &eb
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return eb.String(), code
}

// A library error already starts with "cstf: "; the CLI's own errors do
// not. Each is printed behind exactly one prefix.
func TestErrorsCarryOnePrefix(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"-dataset synt3d -scale 5e-5 -algo bogus -dist-local 2", `cstf: unknown algorithm "bogus"`},
		{"-rank 2", "cstf: one of -in or -dataset is required"},
	} {
		stderr, code := runCLI(t, tc.args)
		if code != 1 || !strings.HasPrefix(stderr, tc.want) || strings.Contains(stderr, "cstf: cstf:") {
			t.Errorf("cstf %s: exit %d, stderr %q; want exit 1 and a line starting %q", tc.args, code, stderr, tc.want)
		}
	}
}
