package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run this binary's main in a child process: the
// test binary re-executes itself with mainEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const mainEnv = "RCOAL_RUN_MAIN"

// TestTheoryGolden pins what `rcoal theory` prints on stdout and the
// code it exits with. The goldens in testdata/theory/<name>.txt are
// the output of the former standalone rcoal-theory binary for the same
// arguments; a failing run prints nothing on stdout.
func TestTheoryGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stderr string // substring of stderr when code != 0
	}{
		{"default", nil, 0, ""},
		{"absolute", []string{"-n", "32", "-r", "16", "-absolute"}, 0, ""},
		{"n16-r8-alpha", []string{"-n", "16", "-r", "8", "-m", "1,2,4,8,16", "-absolute", "-alpha", "0.9"}, 0, ""},
		{"rss-rts-8", []string{"-mechanism", "rss+rts:8", "-absolute"}, 0, ""},
		{"delay-64", []string{"-mechanism", "delay:64"}, 0, ""},
		{"m3", []string{"-m", "3"}, 1, "M=3 does not divide N=32"},
		{"alpha-out-of-range", []string{"-absolute", "-alpha", "2"}, 1, "-alpha 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			if tc.code == 0 {
				var err error
				if want, err = os.ReadFile(filepath.Join("testdata", "theory", tc.name+".txt")); err != nil {
					t.Fatal(err)
				}
			}
			cmd := exec.Command(os.Args[0], append([]string{"theory"}, tc.args...)...)
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Errorf("exit code %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("stdout differs:\n got:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestAttackBadOptionsFailFast: `rcoal attack` rejects a bad -samples,
// -lines or -service with exit 1, naming the flag, before it prints
// the collecting line or simulates a launch.
func TestAttackBadOptionsFailFast(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"negative samples", []string{"-samples", "-1"}, "-samples -1"},
		{"zero samples", []string{"-samples", "0"}, "-samples 0"},
		{"one sample", []string{"-samples", "1"}, "-samples 1"},
		{"zero lines", []string{"-lines", "0"}, "-lines 0"},
		{"unknown service", []string{"-service", "bogus"}, `-service "bogus"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"attack"}, tc.args...)...)
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 1 {
				t.Fatalf("exit = %v, want code 1; stderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.wantErr, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout before the failure:\n%s", stdout.String())
			}
		})
	}
}
