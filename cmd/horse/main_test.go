package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// runHorse runs the command in-process and returns its exit code and
// streams.
func runHorse(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestRunSingle drives bare-flag runs at high pacing (a 2s virtual run
// takes ~50ms of wall) and checks each summary block appears when, and
// only when, its flags ask for it.
func TestRunSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	cases := []struct {
		name    string
		args    []string
		want    []string
		wantNot []string
	}{
		{
			name:    "defaults",
			args:    []string{"-dur", "2s", "-pacing", "50"},
			want:    []string{"# fattree:4/ecmp5/permutation:42 hosts=16", "steady aggregate rx : 9Gbps", "rate solver         : ", "clock               : FTI"},
			wantNot: []string{"workload", "failure injection", "naive"},
		},
		{
			name: "workload summary",
			args: []string{"-traffic", "permutation:7", "-capacity", "walk:7:250ms", "-dur", "2s", "-pacing", "50"},
			want: []string{"workload            : traffic=permutation:7 capacity=walk:7:250ms", "goodput (2nd half)", "min host rx floor"},
		},
		{
			name: "tsv",
			args: []string{"-tsv", "-topo", "two-routers", "-scenario", "bgp", "-dur", "2s", "-pacing", "50"},
			want: []string{"2.000\t2e+09\n", "steady aggregate rx"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runHorse(tc.args...)
			if code != 0 {
				t.Fatalf("exit %d, want 0; stderr: %s", code, stderr)
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("output lacks %q:\n%s", w, stdout)
				}
			}
			for _, w := range tc.wantNot {
				if strings.Contains(stdout, w) {
					t.Errorf("output holds %q:\n%s", w, stdout)
				}
			}
			if solves := regexp.MustCompile(`rate solver +: (\d+) solves`).FindStringSubmatch(stdout); solves == nil || solves[1] == "0" {
				t.Errorf("no solver line with a positive solve count:\n%s", stdout)
			}
		})
	}
}

// TestRunFail pins the -fail path end to end: the shared helper scripts
// both injections, fine sampling resolves the dip, and the repair block
// is printed.
func TestRunFail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	code, stdout, stderr := runHorse("-topo", "fattree:4", "-scenario", "bgp-ecmp", "-fail", "-dur", "6s", "-pacing", "50")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr)
	}
	m := regexp.MustCompile(`failure injection +: agg-0-0 <-> core-0-0 down @2s, up @4s \((\d+) injections\)`).FindStringSubmatch(stdout)
	if m == nil {
		t.Fatalf("no failure-injection line:\n%s", stdout)
	}
	if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Errorf("%d injections applied, want >= 2", n)
	}
	for _, w := range []string{"pre-failure rate", "  dip  ", "degraded steady", "post-repair rate"} {
		if !strings.Contains(stdout, w) {
			t.Errorf("output lacks %q:\n%s", w, stdout)
		}
	}
}

// fig3Rows returns the table rows of a fig3 run: the stdout lines that
// are neither the title nor the column header.
func fig3Rows(stdout string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] != "#" && f[0] != "k" {
			rows = append(rows, f)
		}
	}
	return rows
}

func TestRunFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	code, stdout, stderr := runHorse("fig3", "-skip-baseline", "-k", "4", "-dur", "2s", "-pacing", "50")
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr)
	}
	rows := fig3Rows(stdout)
	if len(rows) != 1 || len(rows[0]) != 3 || rows[0][0] != "4" {
		t.Fatalf("rows = %v, want one k=4 row of k, horse-setup, horse-exec:\n%s", rows, stdout)
	}
	for _, te := range teScenarios {
		if !strings.Contains(stderr, "horse k=4 "+te) {
			t.Errorf("no progress line for %s:\n%s", te, stderr)
		}
	}
}

// TestFig3ZeroPacing is the regression for `fig3 -pacing 0`: the Horse
// side ran at the spec default 1.0 while the baseline divided the
// duration by the raw flag, ran for 0s and still printed a ratio. Both
// systems now read the defaulted run, so the baseline really spends
// dur of wall time per TE run.
func TestFig3ZeroPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real-time baseline")
	}
	const dur = 200 * time.Millisecond
	code, stdout, stderr := runHorse("fig3", "-pacing", "0", "-k", "4", "-dur", dur.String())
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "pacing 1.0") {
		t.Errorf("title does not report the defaulted pacing:\n%s", stdout)
	}
	rows := fig3Rows(stdout)
	if len(rows) != 1 || len(rows[0]) != 5 {
		t.Fatalf("rows = %v, want one row of k, horse-setup, horse-exec, baseline-exec, ratio:\n%s", rows, stdout)
	}
	baseExec, err := time.ParseDuration(rows[0][3])
	if err != nil {
		t.Fatalf("baseline-exec %q: %v", rows[0][3], err)
	}
	if baseExec < 3*dur {
		t.Errorf("baseline-exec = %v for three %v runs: the baseline did not run in real time", baseExec, dur)
	}
}

// TestRunExitCodes pins the one exit-code rule: every flag, spec or
// usage error exits 2 with nothing on stdout (nothing ran); only a
// failed run exits 1.
func TestRunExitCodes(t *testing.T) {
	notADir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		code int
		want string // substring of stderr
	}{
		{"unknown subcommand", []string{"tedemo"}, 2, "unknown subcommand"},
		{"unknown flag", []string{"-bogus"}, 2, "not defined"},
		{"removed ablation flag", []string{"-naive-solver"}, 2, "not defined: -naive-solver"},
		{"removed ablation flag on fig3", []string{"fig3", "-naive-solver"}, 2, "not defined: -naive-solver"},
		{"stray argument", []string{"-dur", "1s", "extra"}, 2, "unexpected argument"},
		{"bad traffic", []string{"-traffic", "bogus"}, 2, "unknown traffic"},
		{"bad scenario", []string{"-scenario", "ospf"}, 2, "unknown scenario"},
		{"negative pacing", []string{"-pacing", "-1"}, 2, "negative pacing"},
		{"missing workload file", []string{"-traffic", "matrix:" + notADir + ".missing.csv"}, 2, "no such file"},
		{"fail without the victim cable", []string{"-topo", "linear:4", "-fail"}, 2, `unknown node "agg-0-0"`},
		{"fig3 bad k", []string{"fig3", "-k", "x"}, 2, `bad -k "x"`},
		{"fig3 odd k", []string{"fig3", "-k", "4,5"}, 2, "k=5"},
		{"fig3 negative pacing", []string{"fig3", "-pacing", "-2"}, 2, "negative pacing"},
		{"failed run", []string{"-dur", "1s", "-pacing", "50", "-pcap", filepath.Join(notADir, "traces")}, 1, "capture"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runHorse(tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d; stderr: %s", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr lacks %q: %s", tc.want, stderr)
			}
			if stdout != "" {
				t.Errorf("stdout not empty for a run that never produced a result: %s", stdout)
			}
		})
	}
}
