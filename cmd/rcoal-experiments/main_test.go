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

	"rcoal/internal/cliutil"
)

// TestCheckOutputs is the table for cliutil.CheckOutputs, the
// pre-compute output checks rcoal-experiments and rcoal-coordinator
// share.
func TestCheckOutputs(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	readOnly := filepath.Join(dir, "ro")
	if err := os.Mkdir(readOnly, 0o555); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name               string
		csv, trace, flight string
		wantErr            string // substring; empty means no error
		needsPerms         bool
	}{
		{name: "all unset"},
		{name: "csv dir", csv: dir},
		{name: "csv missing", csv: missing, wantErr: "-csv"},
		{name: "csv is a file", csv: file, wantErr: "not a directory"},
		{name: "csv read-only", csv: readOnly, wantErr: "not writable", needsPerms: true},
		{name: "trace in existing dir", trace: filepath.Join(dir, "trace.json")},
		{name: "bare trace file name", trace: "trace.json"},
		{name: "trace parent missing", trace: filepath.Join(missing, "trace.json"), wantErr: "-trace-out"},
		{name: "trace parent is a file", trace: filepath.Join(file, "trace.json"), wantErr: "-trace-out"},
		{name: "flight in existing dir", flight: filepath.Join(dir, "flight.json")},
		{name: "flight parent missing", flight: filepath.Join(missing, "flight.json"), wantErr: "-flight-out"},
		{name: "all valid", csv: dir, trace: filepath.Join(dir, "t.json"), flight: filepath.Join(dir, "f.json")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.needsPerms && os.Geteuid() == 0 {
				t.Skip("root bypasses directory permissions")
			}
			err := cliutil.CheckOutputs(tc.csv, tc.trace, tc.flight)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("no error, want one mentioning %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
	// The writability probe leaves nothing behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".rcoal-probe-") {
			t.Errorf("probe file %s left in the -csv directory", e.Name())
		}
	}
}

// TestMain lets a test run this binary's main in a child process: the
// test binary re-executes itself with mainEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

const mainEnv = "RCOAL_EXPERIMENTS_RUN_MAIN"

// TestCacheOpenedBeforeCompute: an unusable -cache directory exits
// with code 2 before the first experiment runs.
func TestCacheOpenedBeforeCompute(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-run", "all", "-samples", "2", "-cache", file)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("exit = %v, want code 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "rcoal-experiments: -cache") {
		t.Errorf("stderr does not report the -cache failure:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("experiments ran before the failure:\n%s", stdout.String())
	}
}
