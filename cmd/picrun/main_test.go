package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestCheckArgs(t *testing.T) {
	for _, scheme := range []string{"ic", "pic", "async", "both"} {
		if err := checkArgs(scheme, 1); err != nil {
			t.Errorf("checkArgs(%q, 1): %v", scheme, err)
		}
	}
	if checkArgs("bogus", 6) == nil || checkArgs("", 6) == nil {
		t.Error("unknown scheme accepted")
	}
	for _, p := range []int{0, -3} {
		if checkArgs("both", p) == nil {
			t.Errorf("checkArgs(both, %d) accepted", p)
		}
	}
}

// TestBadFlagsAreUsageErrors drives main itself (this test binary
// re-executed with picrun's arguments): a partition count or scheme the
// workload builders cannot use must end in a one-line error naming the
// flag and exit status 2 — never a panic trace, and before the dataset
// is built.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	if args := os.Getenv("PICRUN_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"picrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ args, flag string }{
		{"-app pagerank -partitions 0", "-partitions"},
		{"-app kmeans -partitions -4", "-partitions"},
		{"-scheme bogus", "-scheme"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagsAreUsageErrors$")
		cmd.Env = append(os.Environ(), "PICRUN_MAIN_ARGS="+tc.args)
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2\n%s", tc.args, err, out)
		}
		msg := strings.TrimSpace(string(out))
		if strings.Contains(msg, "goroutine") || strings.Contains(msg, "panic") ||
			strings.Count(msg, "\n") != 0 || !strings.Contains(msg, tc.flag) {
			t.Errorf("%s: want a one-line error naming %s, got:\n%s", tc.args, tc.flag, out)
		}
	}
}
