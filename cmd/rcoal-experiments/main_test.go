package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

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
			err := checkOutputs(tc.csv, tc.trace, tc.flight)
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
