package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

const mainEnv = "RCOAL_COORDINATOR_RUN_MAIN"

// TestFailFast: a bad output path or -cache directory exits with code
// 2 before the coordinator serves or leases anything.
func TestFailFast(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"csv missing", []string{"-csv", missing}, "-csv"},
		{"trace parent missing", []string{"-trace-out", filepath.Join(missing, "t.json")}, "-trace-out"},
		{"flight parent is a file", []string{"-flight-out", filepath.Join(file, "f.json")}, "-flight-out"},
		{"cache is a file", []string{"-cache", file}, "-cache"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			args := append([]string{"-addr", "127.0.0.1:0", "-run", "fig7", "-journal", dir}, tc.args...)
			cmd := exec.CommandContext(ctx, os.Args[0], args...)
			cmd.Env = append(os.Environ(), mainEnv+"=1")
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("exit = %v, want code 2; output:\n%s", err, out)
			}
			if want := "rcoal-coordinator: " + tc.wantErr; !strings.Contains(string(out), want) {
				t.Errorf("output does not contain %q:\n%s", want, out)
			}
			if strings.Contains(string(out), "serving on") {
				t.Errorf("coordinator started serving before failing:\n%s", out)
			}
		})
	}
}
