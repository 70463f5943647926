package main

import (
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestMain lets a test drive main itself: with PICBENCH_MAIN_ARGS set,
// this test binary runs as picbench with those arguments instead of
// running tests.
func TestMain(m *testing.M) {
	if args := os.Getenv("PICBENCH_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"picbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// picbench re-executes this test binary as picbench with args.
func picbench(args string) *exec.Cmd {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PICBENCH_MAIN_ARGS="+args)
	return cmd
}

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

// TestBadScaleIsAUsageError drives main itself: a -scale the bench
// package cannot use must end in a one-line error and exit status 2,
// never a panic trace.
func TestBadScaleIsAUsageError(t *testing.T) {
	for _, scale := range []string{"0", "-2", "NaN", "+Inf"} {
		out, err := picbench("-scale " + scale + " fig2").CombinedOutput()
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

// TestListNamesEverythingOnce checks that -list prints one line per
// experiment, the bench-snapshot subcommand, and the report and watch
// entry of every report workload — each exactly once.
func TestListNamesEverythingOnce(t *testing.T) {
	out, err := picbench("-list").Output()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bench-snapshot"}
	for _, e := range experiments {
		want = append(want, e.name)
	}
	for _, w := range bench.ReportWorkloads() {
		want = append(want, "report "+w, "watch "+w)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(want) {
		t.Errorf("-list printed %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for _, name := range want {
		n := 0
		for _, line := range lines {
			if strings.HasPrefix(line, name+" ") {
				n++
			}
		}
		if n != 1 {
			t.Errorf("-list names %q %d times", name, n)
		}
	}
}

// TestSmallSuiteMatchesGolden runs the whole suite at -scale 0.05 on
// every core and diffs it, wall-clock text masked, against
// testdata/golden_small.txt: any refactor that moves a simulated number
// fails here. Regenerate the file only in a change that means to move
// simulated results:
//
//	go run ./cmd/picbench -scale 0.05 | sed -E -f scripts/mask-wall.sed > cmd/picbench/testdata/golden_small.txt
func TestSmallSuiteMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("small-suite golden skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/golden_small.txt")
	if err != nil {
		t.Fatal(err)
	}
	out, err := picbench("-scale 0.05 -parallel " + strconv.Itoa(runtime.GOMAXPROCS(0))).Output()
	if err != nil {
		t.Fatalf("suite failed: %v\n%s", err, out)
	}
	got := maskWall(t, string(out))
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("suite output differs from testdata/golden_small.txt at line %d:\n got: %s\nwant: %s",
				i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("suite output has %d lines, testdata/golden_small.txt %d", len(gotLines), len(wantLines))
}

// maskWall applies the substitutions of scripts/mask-wall.sed — the
// golden CI job's masking of host wall-clock text — line by line, as
// sed -E does.
func maskWall(t *testing.T, text string) string {
	t.Helper()
	script, err := os.ReadFile("../../scripts/mask-wall.sed")
	if err != nil {
		t.Fatal(err)
	}
	type sub struct {
		re     *regexp.Regexp
		repl   string
		global bool
	}
	var subs []sub
	backref := regexp.MustCompile(`\\([0-9])`)
	for _, line := range strings.Split(string(script), "\n") {
		if !strings.HasPrefix(line, "s/") {
			continue
		}
		parts := strings.Split(line, "/") // s, pattern, replacement, flags
		if len(parts) != 4 {
			t.Fatalf("mask-wall.sed: unsupported command %q", line)
		}
		subs = append(subs, sub{regexp.MustCompilePOSIX(parts[1]), backref.ReplaceAllString(parts[2], "$${$1}"), parts[3] == "g"})
	}
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		for _, s := range subs {
			if s.global {
				line = s.re.ReplaceAllString(line, s.repl)
			} else if m := s.re.FindStringSubmatchIndex(line); m != nil {
				line = line[:m[0]] + string(s.re.ExpandString(nil, s.repl, line, m)) + line[m[1]:]
			}
		}
		lines[i] = line
	}
	return strings.Join(lines, "\n")
}
