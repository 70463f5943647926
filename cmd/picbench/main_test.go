package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestCheckScale(t *testing.T) {
	for _, s := range []float64{0, -1, -0.05, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if checkScale(s) == nil {
			t.Errorf("checkScale(%v) accepted", s)
		}
	}
	for _, s := range []float64{0.05, 1, 10, 1000} {
		if err := checkScale(s); err != nil {
			t.Errorf("checkScale(%v): %v", s, err)
		}
	}
}

// TestBadScaleIsAUsageError drives main itself (this test binary
// re-executed with picbench's arguments): a -scale the bench package
// cannot use must end in a one-line error and exit status 2, never a
// panic trace.
func TestBadScaleIsAUsageError(t *testing.T) {
	if args := os.Getenv("PICBENCH_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"picbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, scale := range []string{"0", "-2", "NaN", "+Inf"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadScaleIsAUsageError$")
		cmd.Env = append(os.Environ(), "PICBENCH_MAIN_ARGS=-scale "+scale+" fig2")
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 {
			t.Errorf("-scale %s: err = %v, want exit status 2\n%s", scale, err, out)
		}
		msg := strings.TrimSpace(string(out))
		if strings.Contains(msg, "goroutine") || strings.Contains(msg, "panic") ||
			strings.Count(msg, "\n") != 0 || !strings.Contains(msg, "-scale") {
			t.Errorf("-scale %s: want a one-line error naming the flag, got:\n%s", scale, out)
		}
	}
}
